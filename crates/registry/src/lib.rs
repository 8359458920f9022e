//! A UDDI-style registry for SOAP-binQ services.
//!
//! §III-B.b: "In the future, we foresee the designer providing a quality
//! file along with the WSDL file, through UDDI or a similar WSDL
//! repository. This would let the user directly access the service,
//! without knowledge of the actual message types used in data
//! transmission."
//!
//! This crate implements exactly that workflow: a [`RegistryServer`] is
//! itself a SOAP-binQ service where providers *publish* a WSDL document
//! together with its quality file, and a [`RegistryClient`] *discovers*
//! both, parses them, and can connect to the advertised endpoint with a
//! ready-made [`QualityManager`] — no out-of-band knowledge of message
//! types required.

use sbq_model::{TypeDesc, Value};
use sbq_qos::{QualityFile, QualityManager};
use sbq_wsdl::{parse_wsdl, ServiceDef, WsdlError};
use soap_binq::{SoapClient, SoapServer, SoapServerBuilder, WireEncoding};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::RwLock;

/// A published entry: the WSDL text and (optionally) the quality file
/// text that accompanies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Service name (registry key).
    pub name: String,
    /// WSDL document text.
    pub wsdl: String,
    /// Quality-file text (empty = none published).
    pub quality: String,
}

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// Transport/protocol failure.
    Soap(soap_binq::SoapError),
    /// The requested service is not registered.
    NotFound(String),
    /// The published WSDL did not parse.
    BadWsdl(WsdlError),
    /// The published quality file did not parse.
    BadQuality(sbq_qos::QosParseError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Soap(e) => write!(f, "registry transport error: {e}"),
            RegistryError::NotFound(n) => write!(f, "service {n} not registered"),
            RegistryError::BadWsdl(e) => write!(f, "registered wsdl invalid: {e}"),
            RegistryError::BadQuality(e) => write!(f, "registered quality file invalid: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<soap_binq::SoapError> for RegistryError {
    fn from(e: soap_binq::SoapError) -> Self {
        RegistryError::Soap(e)
    }
}

/// The registry's own service definition.
pub fn registry_service(location: &str) -> ServiceDef {
    let entry_ty = TypeDesc::struct_of(
        "registry_entry",
        vec![
            ("name", TypeDesc::Str),
            ("wsdl", TypeDesc::Str),
            ("quality", TypeDesc::Str),
        ],
    );
    let found_ty = TypeDesc::struct_of(
        "registry_result",
        vec![
            ("found", TypeDesc::Int),
            ("wsdl", TypeDesc::Str),
            ("quality", TypeDesc::Str),
        ],
    );
    ServiceDef::new("Registry", "urn:sbq:registry", location)
        .with_operation("publish", entry_ty, TypeDesc::Int)
        .with_operation("lookup", TypeDesc::Str, found_ty)
        .with_operation("list", TypeDesc::Int, TypeDesc::list_of(TypeDesc::Str))
}

/// The running registry.
pub struct RegistryServer {
    entries: Arc<RwLock<HashMap<String, RegistryEntry>>>,
}

impl RegistryServer {
    /// An empty registry.
    pub fn new() -> RegistryServer {
        RegistryServer {
            entries: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Starts serving on `addr`.
    pub fn serve(
        self,
        addr: SocketAddr,
        encoding: WireEncoding,
    ) -> Result<SoapServer, soap_binq::SoapError> {
        let svc = registry_service("http://0.0.0.0/registry");
        let mut builder = SoapServerBuilder::new(&svc, encoding).expect("registry compiles");
        let entries = Arc::clone(&self.entries);
        builder = builder.handle("publish", move |req| {
            let ok = (|| {
                let s = req.as_struct().ok()?;
                let name = s.field("name")?.as_str().ok()?.to_string();
                let wsdl = s.field("wsdl")?.as_str().ok()?.to_string();
                let quality = s.field("quality")?.as_str().ok()?.to_string();
                // Validate before accepting: a registry full of garbage
                // helps nobody.
                if parse_wsdl(&wsdl).is_err() {
                    return None;
                }
                if !quality.is_empty() && QualityFile::parse(&quality).is_err() {
                    return None;
                }
                entries.write().unwrap().insert(
                    name.clone(),
                    RegistryEntry {
                        name,
                        wsdl,
                        quality,
                    },
                );
                Some(())
            })()
            .is_some();
            Value::Int(ok as i64)
        });
        let entries = Arc::clone(&self.entries);
        builder = builder.handle("lookup", move |req| {
            let name = req.as_str().unwrap_or_default();
            match entries.read().unwrap().get(name) {
                Some(e) => Value::struct_of(
                    "registry_result",
                    vec![
                        ("found", Value::Int(1)),
                        ("wsdl", Value::Str(e.wsdl.clone())),
                        ("quality", Value::Str(e.quality.clone())),
                    ],
                ),
                None => Value::struct_of(
                    "registry_result",
                    vec![
                        ("found", Value::Int(0)),
                        ("wsdl", Value::Str(String::new())),
                        ("quality", Value::Str(String::new())),
                    ],
                ),
            }
        });
        let entries = Arc::clone(&self.entries);
        builder = builder.handle("list", move |_| {
            let mut names: Vec<String> = entries.read().unwrap().keys().cloned().collect();
            names.sort();
            Value::List(names.into_iter().map(Value::Str).collect())
        });
        builder.bind(addr)
    }
}

impl Default for RegistryServer {
    fn default() -> Self {
        RegistryServer::new()
    }
}

/// Client-side registry access.
pub struct RegistryClient {
    client: SoapClient,
}

impl RegistryClient {
    /// Connects to a registry.
    pub fn connect(
        addr: SocketAddr,
        encoding: WireEncoding,
    ) -> Result<RegistryClient, RegistryError> {
        let svc = registry_service("x");
        Ok(RegistryClient {
            client: SoapClient::connect(addr, &svc, encoding)?,
        })
    }

    /// Publishes a service description (+ optional quality file text).
    pub fn publish(
        &mut self,
        svc: &ServiceDef,
        quality: Option<&str>,
    ) -> Result<bool, RegistryError> {
        let wsdl = sbq_wsdl::write_wsdl(svc)
            .map_err(|e| RegistryError::Soap(soap_binq::SoapError::protocol(e.to_string())))?;
        let req = Value::struct_of(
            "registry_entry",
            vec![
                ("name", Value::Str(svc.name.clone())),
                ("wsdl", Value::Str(wsdl)),
                ("quality", Value::Str(quality.unwrap_or("").to_string())),
            ],
        );
        let ok = self.client.call("publish", req)?;
        Ok(ok == Value::Int(1))
    }

    /// Names of all registered services.
    pub fn list(&mut self) -> Result<Vec<String>, RegistryError> {
        match self.client.call("list", Value::Int(0))? {
            Value::List(vs) => Ok(vs
                .into_iter()
                .filter_map(|v| v.as_str().map(str::to_string).ok())
                .collect()),
            _ => Ok(Vec::new()),
        }
    }

    /// Discovers a service: returns its parsed definition and, when a
    /// quality file was published, a ready [`QualityManager`] — "the user
    /// directly access\[es\] the service, without knowledge of the actual
    /// message types".
    pub fn discover(
        &mut self,
        name: &str,
    ) -> Result<(ServiceDef, Option<QualityManager>), RegistryError> {
        let res = self.client.call("lookup", Value::Str(name.to_string()))?;
        let s = res.as_struct().map_err(soap_binq::SoapError::from)?;
        let found = s.field("found").and_then(|v| v.as_int().ok()).unwrap_or(0);
        if found == 0 {
            return Err(RegistryError::NotFound(name.to_string()));
        }
        let wsdl_text = s
            .field("wsdl")
            .and_then(|v| v.as_str().ok())
            .unwrap_or_default();
        let svc = parse_wsdl(wsdl_text).map_err(RegistryError::BadWsdl)?;
        let quality_text = s
            .field("quality")
            .and_then(|v| v.as_str().ok())
            .unwrap_or_default();
        let qm = if quality_text.is_empty() {
            None
        } else {
            let file = QualityFile::parse(quality_text).map_err(RegistryError::BadQuality)?;
            Some(QualityManager::new(file))
        };
        Ok((svc, qm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_service() -> ServiceDef {
        ServiceDef::new("Sensor", "urn:t:sensor", "http://10.0.0.1:8080/s").with_operation(
            "read",
            TypeDesc::Int,
            TypeDesc::struct_of("reading", vec![("v", TypeDesc::Float)]),
        )
    }

    const QUALITY: &str = "attribute rtt\n0 50 - full\n50 inf - small\n";

    fn start() -> (SoapServer, RegistryClient) {
        let server = RegistryServer::new()
            .serve("127.0.0.1:0".parse().unwrap(), WireEncoding::Pbio)
            .unwrap();
        let client = RegistryClient::connect(server.addr(), WireEncoding::Pbio).unwrap();
        (server, client)
    }

    #[test]
    fn publish_then_discover_round_trips() {
        let (_server, mut client) = start();
        assert!(client.publish(&sample_service(), Some(QUALITY)).unwrap());
        assert_eq!(client.list().unwrap(), vec!["Sensor".to_string()]);

        let (svc, qm) = client.discover("Sensor").unwrap();
        assert_eq!(svc, sample_service());
        let mut qm = qm.expect("quality file published");
        qm.attributes().update_attribute("rtt", 100.0);
        assert_eq!(qm.select().message_type, "small");
    }

    #[test]
    fn missing_service_reported() {
        let (_server, mut client) = start();
        assert!(matches!(
            client.discover("nope"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn service_without_quality_file() {
        let (_server, mut client) = start();
        client.publish(&sample_service(), None).unwrap();
        let (_, qm) = client.discover("Sensor").unwrap();
        assert!(qm.is_none());
    }

    #[test]
    fn garbage_publications_rejected() {
        let (_server, mut client) = start();
        // Publish raw garbage via the low-level call surface.
        let req = Value::struct_of(
            "registry_entry",
            vec![
                ("name", Value::Str("evil".into())),
                ("wsdl", Value::Str("<not-wsdl>".into())),
                ("quality", Value::Str(String::new())),
            ],
        );
        let ok = client.client.call("publish", req).unwrap();
        assert_eq!(ok, Value::Int(0));
        assert!(client.list().unwrap().is_empty());

        // Bad quality file also rejected.
        let bad_q = Value::struct_of(
            "registry_entry",
            vec![
                ("name", Value::Str("evil2".into())),
                (
                    "wsdl",
                    Value::Str(sbq_wsdl::write_wsdl(&sample_service()).unwrap()),
                ),
                ("quality", Value::Str("0 x - broken".into())),
            ],
        );
        assert_eq!(client.client.call("publish", bad_q).unwrap(), Value::Int(0));
    }

    #[test]
    fn republish_overwrites() {
        let (_server, mut client) = start();
        client.publish(&sample_service(), None).unwrap();
        client.publish(&sample_service(), Some(QUALITY)).unwrap();
        let (_, qm) = client.discover("Sensor").unwrap();
        assert!(qm.is_some());
        assert_eq!(client.list().unwrap().len(), 1);
    }
}
