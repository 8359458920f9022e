//! The OIS SOAP service: callers (flight caterers) request catering
//! detail; the server applies business rules over the memory-resident
//! dataset and responds with the excerpt.

use crate::data::Dataset;
use crate::event::{catering_event_type, CateringEvent};
use sbq_model::{TypeDesc, Value};
use sbq_wsdl::ServiceDef;
use soap_binq::{SoapServer, SoapServerBuilder, WireEncoding};
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::Mutex;

/// The airline OIS service definition.
pub fn airline_service(location: &str) -> ServiceDef {
    ServiceDef::new("AirlineOIS", "urn:sbq:airline", location)
        .with_operation(
            "get_catering",
            TypeDesc::struct_of("catering_request", vec![("flight", TypeDesc::Str)]),
            catering_event_type(),
        )
        .with_operation(
            "list_flights",
            TypeDesc::Int,
            TypeDesc::list_of(TypeDesc::Str),
        )
}

/// The running OIS: dataset plus a per-flight cart cursor so successive
/// requests stream different excerpts (the "continuously produced"
/// information flow).
pub struct OisServer {
    dataset: Dataset,
    cursor: Mutex<usize>,
}

impl OisServer {
    /// Builds an OIS over a generated dataset.
    pub fn new(flights: usize, seed: u64) -> OisServer {
        OisServer {
            dataset: Dataset::generate(flights, seed),
            cursor: Mutex::new(0),
        }
    }

    /// The dataset (benchmarks build events directly from it).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Produces the next catering event for a flight number.
    pub fn next_event(&self, flight_number: &str) -> Option<CateringEvent> {
        let idx = self
            .dataset
            .flights
            .iter()
            .position(|f| f.number == flight_number)?;
        let mut cur = self.cursor.lock().unwrap();
        let e = CateringEvent::build(&self.dataset, idx, *cur);
        *cur += crate::event::LINES_PER_EVENT;
        Some(e)
    }

    /// Starts the SOAP server.
    pub fn serve(
        self,
        addr: SocketAddr,
        encoding: WireEncoding,
    ) -> Result<SoapServer, soap_binq::SoapError> {
        let svc = airline_service("http://0.0.0.0/airline");
        let builder = SoapServerBuilder::new(&svc, encoding).expect("service compiles");
        let numbers: Vec<String> = self
            .dataset
            .flights
            .iter()
            .map(|f| f.number.clone())
            .collect();
        let ois = Arc::new(self);
        let o = Arc::clone(&ois);
        builder
            .handle("get_catering", move |req| {
                let flight = req
                    .as_struct()
                    .ok()
                    .and_then(|s| s.field("flight").cloned())
                    .and_then(|v| v.as_str().map(str::to_string).ok())
                    .unwrap_or_default();
                match o.next_event(&flight) {
                    Some(e) => e.to_value(),
                    // Unknown flight: empty event (a fault would also be
                    // reasonable; the OIS favors availability).
                    None => Value::zero_of(&catering_event_type()),
                }
            })
            .handle("list_flights", move |_| {
                Value::List(numbers.iter().map(|n| Value::Str(n.clone())).collect())
            })
            .bind(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_binq::SoapClient;

    #[test]
    fn caterer_pulls_events_over_soap() {
        let ois = OisServer::new(8, 21);
        let first_flight = ois.dataset().flights[0].number.clone();
        let server = ois
            .serve("127.0.0.1:0".parse().unwrap(), WireEncoding::Pbio)
            .unwrap();
        let svc = airline_service("x");
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();

        let flights = client.call("list_flights", Value::Int(0)).unwrap();
        let Value::List(fs) = &flights else {
            panic!("expected list")
        };
        assert_eq!(fs.len(), 8);

        let req = Value::struct_of(
            "catering_request",
            vec![("flight", Value::Str(first_flight.clone()))],
        );
        let v = client.call("get_catering", req.clone()).unwrap();
        let e1 = CateringEvent::from_value(&v).unwrap();
        assert_eq!(e1.flight, first_flight);

        // Next request streams the next cart.
        let v = client.call("get_catering", req).unwrap();
        let e2 = CateringEvent::from_value(&v).unwrap();
        if e1.meals.len() == crate::event::LINES_PER_EVENT {
            assert_ne!(e1.meals, e2.meals);
        }
    }

    #[test]
    fn unknown_flight_yields_empty_event() {
        let ois = OisServer::new(2, 1);
        let server = ois
            .serve("127.0.0.1:0".parse().unwrap(), WireEncoding::Xml)
            .unwrap();
        let svc = airline_service("x");
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Xml).unwrap();
        let req = Value::struct_of(
            "catering_request",
            vec![("flight", Value::Str("XX9999".into()))],
        );
        let v = client.call("get_catering", req).unwrap();
        let e = CateringEvent::from_value(&v).unwrap();
        assert!(e.meals.is_empty());
        assert!(e.flight.is_empty());
    }
}
