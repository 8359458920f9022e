//! The bond server (paper §IV-C.2, Fig. 9).
//!
//! "The SOAP-binQ quality file is formulated such that the server sends
//! collective data corresponding to as many timestamps (between 1 and 4)
//! in its response, as indicated by available network resources."

use crate::graph::BondGraph;
use crate::sim::Molecule;
use sbq_model::{TypeDesc, Value};
use sbq_qos::{QualityAttributes, QualityFile, QualityManager};
use sbq_wsdl::ServiceDef;
use soap_binq::{SoapServer, SoapServerBuilder, WireEncoding};
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::Mutex;

/// Schema of a batched response: up to four per-timestep graphs.
pub fn batch_type() -> TypeDesc {
    TypeDesc::struct_of(
        "bond_batch",
        vec![("graphs", TypeDesc::list_of(BondGraph::type_desc()))],
    )
}

/// The bond-server service definition.
pub fn bond_service(location: &str) -> ServiceDef {
    ServiceDef::new("BondService", "urn:sbq:mdsim", location).with_operation(
        "get_bonds",
        TypeDesc::struct_of("bond_request", vec![("max_timesteps", TypeDesc::Int)]),
        batch_type(),
    )
}

/// The Fig. 9 quality file: RTT bands (milliseconds) select how many
/// timesteps each response batches, 4 on an idle network down to 1 under
/// congestion.
pub fn md_quality_file(band_ms: [f64; 3]) -> QualityFile {
    let [a, b, c] = band_ms;
    let text = format!(
        "attribute rtt\n\
         0 {a} - batch_4\n\
         {a} {b} - batch_3\n\
         {b} {c} - batch_2\n\
         {c} inf - batch_1\n\
         handler batch_4 keep_4\nhandler batch_3 keep_3\nhandler batch_2 keep_2\nhandler batch_1 keep_1\n"
    );
    QualityFile::parse(&text).expect("static quality file is valid")
}

/// Installs the `keep_k` truncation handlers: each keeps the first `k`
/// graphs of a batch (an application-specific data filter in the sense of
/// §III-B.b).
pub fn install_batch_handlers(attrs_target: &sbq_qos::HandlerRegistry) {
    for k in 1..=4usize {
        attrs_target.install(
            &format!("keep_{k}"),
            move |v: &Value, _: &QualityAttributes| truncate_batch(v, k),
        );
    }
}

fn truncate_batch(v: &Value, k: usize) -> Value {
    let Ok(s) = v.as_struct() else {
        return v.clone();
    };
    let Some(Value::List(graphs)) = s.field("graphs") else {
        return v.clone();
    };
    Value::struct_of(
        "bond_batch",
        vec![(
            "graphs",
            Value::List(graphs.iter().take(k).cloned().collect()),
        )],
    )
}

/// The running bond server: owns the molecule, advances it, serves
/// batches.
pub struct BondServer {
    molecule: Arc<Mutex<Molecule>>,
    /// Steps integrated between captured timesteps.
    steps_per_frame: usize,
    cutoff: f64,
}

impl BondServer {
    /// Creates a bond server over a branched-chain molecule of `atoms`
    /// atoms.
    pub fn new(atoms: usize, seed: u64) -> BondServer {
        BondServer {
            molecule: Arc::new(Mutex::new(Molecule::branched_chain(atoms, seed))),
            steps_per_frame: 10,
            cutoff: 1.2,
        }
    }

    /// Produces the next `count` timesteps as a batch value, advancing
    /// the simulation.
    pub fn next_batch(&self, count: usize) -> Value {
        let mut m = self.molecule.lock().unwrap();
        let mut graphs = Vec::with_capacity(count);
        for _ in 0..count.max(1) {
            m.run(self.steps_per_frame);
            graphs.push(BondGraph::capture(&m, self.cutoff).to_value());
        }
        Value::struct_of("bond_batch", vec![("graphs", Value::List(graphs))])
    }

    /// Starts the SOAP server. With `quality_bands`, responses batch 1-4
    /// timesteps by network quality; without, every response carries the
    /// full 4.
    pub fn serve(
        self,
        addr: SocketAddr,
        encoding: WireEncoding,
        quality_bands: Option<[f64; 3]>,
    ) -> Result<SoapServer, soap_binq::SoapError> {
        let svc = bond_service("http://0.0.0.0/mdsim");
        let mut builder = SoapServerBuilder::new(&svc, encoding).expect("bond service compiles");
        if let Some(bands) = quality_bands {
            let qm = QualityManager::new(md_quality_file(bands));
            install_batch_handlers(qm.handlers());
            builder = builder.with_quality(qm);
        }
        let server = Arc::new(self);
        builder
            .handle("get_bonds", move |req| {
                let max = req
                    .as_struct()
                    .ok()
                    .and_then(|s| s.field("max_timesteps").map(|v| v.as_int().unwrap_or(4)))
                    .unwrap_or(4)
                    .clamp(1, 4) as usize;
                server.next_batch(max)
            })
            .bind(addr)
    }
}

/// Extracts the graphs from a batch value (client-side helper).
pub fn batch_graphs(v: &Value) -> Vec<BondGraph> {
    match v.as_struct().ok().and_then(|s| s.field("graphs").cloned()) {
        Some(Value::List(gs)) => gs.iter().filter_map(BondGraph::from_value).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_binq::SoapClient;
    use std::time::Duration;

    #[test]
    fn batches_advance_the_simulation() {
        let server = BondServer::new(60, 1);
        let b1 = batch_graphs(&server.next_batch(2));
        let b2 = batch_graphs(&server.next_batch(2));
        assert_eq!(b1.len(), 2);
        assert_eq!(b2.len(), 2);
        assert!(b2[0].timestep > b1[1].timestep);
    }

    #[test]
    fn quality_file_bands_select_batch_sizes() {
        let f = md_quality_file([5.0, 15.0, 40.0]);
        assert_eq!(f.select(1.0).message_type, "batch_4");
        assert_eq!(f.select(10.0).message_type, "batch_3");
        assert_eq!(f.select(20.0).message_type, "batch_2");
        assert_eq!(f.select(100.0).message_type, "batch_1");
    }

    #[test]
    fn truncation_handler_keeps_prefix() {
        let server = BondServer::new(40, 2);
        let batch = server.next_batch(4);
        let t = truncate_batch(&batch, 2);
        assert_eq!(batch_graphs(&t).len(), 2);
        assert_eq!(batch_graphs(&t)[0], batch_graphs(&batch)[0]);
        // Non-batch values pass through.
        assert_eq!(truncate_batch(&Value::Int(1), 2), Value::Int(1));
    }

    #[test]
    fn adaptive_bond_server_over_soap() {
        let server = BondServer::new(80, 3)
            .serve(
                "127.0.0.1:0".parse().unwrap(),
                WireEncoding::Pbio,
                Some([5.0, 15.0, 40.0]),
            )
            .unwrap();
        let svc = bond_service("x");
        let qm = QualityManager::new(md_quality_file([5.0, 15.0, 40.0]));
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio)
            .unwrap()
            .with_quality(qm);
        let req = || Value::struct_of("bond_request", vec![("max_timesteps", Value::Int(4))]);

        // Loopback is fast: expect the full 4-timestep batch.
        let v = client.call("get_bonds", req()).unwrap();
        assert_eq!(batch_graphs(&v).len(), 4);

        // Report sustained congestion: the exponential estimator needs
        // several samples to cross the last band, then the batch shrinks
        // to 1.
        for _ in 0..10 {
            client
                .quality_mut()
                .unwrap()
                .observe_rtt(Duration::from_millis(200), Duration::ZERO);
        }
        let v = client.call("get_bonds", req()).unwrap();
        assert_eq!(batch_graphs(&v).len(), 1);
        assert_eq!(client.stats().last_message_type.as_deref(), Some("batch_1"));
    }

    #[test]
    fn batch_graphs_tolerates_malformed_values() {
        assert!(batch_graphs(&Value::Int(3)).is_empty());
        assert!(batch_graphs(&Value::struct_of("bond_batch", vec![])).is_empty());
    }
}
