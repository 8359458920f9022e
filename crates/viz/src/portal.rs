//! The service portal (Fig. 10).
//!
//! The portal sits between display clients (HTTP/SOAP side) and the ECho
//! bond-data channel (event side). Clients discover it via WSDL, then
//! request frames with a *filter* and a *desired output format*; filters
//! can be installed and changed at runtime (the paper's "client can
//! dynamically change the filter code and the output format desired").
//!
//! Filter code is expressed in a small spec language instead of ECho's
//! dynamically generated binary filters (same substitution as for PBIO
//! conversion plans):
//!
//! * `identity` — pass through;
//! * `elements:CNO` — keep only atoms whose element tag is listed, with
//!   bonds remapped to the surviving indices;
//! * `stride:K` — keep every K-th atom;
//! * `halfbox` — keep atoms in the lower half of the bounding box
//!   (focus-of-interest cropping).

use crate::render::render_svg;
use sbq_echo::EchoBus;
use sbq_mdsim::BondGraph;
use sbq_model::{TypeDesc, Value};
use sbq_wsdl::{write_wsdl, ServiceDef};
use soap_binq::{marshal, SoapServer, SoapServerBuilder, WireEncoding};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// A parsed filter specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSpec {
    /// Pass events through unchanged.
    Identity,
    /// Keep atoms whose element byte is in the set.
    Elements(Vec<u8>),
    /// Keep every k-th atom.
    Stride(usize),
    /// Keep atoms with y below the bounding-box midline.
    HalfBox,
}

impl FilterSpec {
    /// Parses a spec string; `None` on unknown syntax.
    pub fn parse(spec: &str) -> Option<FilterSpec> {
        let spec = spec.trim();
        if spec == "identity" || spec.is_empty() {
            return Some(FilterSpec::Identity);
        }
        if spec == "halfbox" {
            return Some(FilterSpec::HalfBox);
        }
        if let Some(rest) = spec.strip_prefix("elements:") {
            let set: Vec<u8> = rest.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
            return (!set.is_empty()).then_some(FilterSpec::Elements(set));
        }
        if let Some(rest) = spec.strip_prefix("stride:") {
            let k: usize = rest.trim().parse().ok()?;
            return (k >= 1).then_some(FilterSpec::Stride(k));
        }
        None
    }

    /// Applies the filter to a bond graph.
    pub fn apply(&self, g: &BondGraph) -> BondGraph {
        let keep: Vec<bool> = match self {
            FilterSpec::Identity => return g.clone(),
            FilterSpec::Elements(set) => g.elements.iter().map(|e| set.contains(e)).collect(),
            FilterSpec::Stride(k) => (0..g.elements.len()).map(|i| i % k == 0).collect(),
            FilterSpec::HalfBox => {
                let n = g.elements.len();
                if n == 0 {
                    return g.clone();
                }
                let ys: Vec<f64> = (0..n).map(|i| g.positions[3 * i + 1]).collect();
                let mid = (ys.iter().cloned().fold(f64::MAX, f64::min)
                    + ys.iter().cloned().fold(f64::MIN, f64::max))
                    / 2.0;
                ys.iter().map(|&y| y <= mid).collect()
            }
        };
        // Remap surviving atoms and the bonds between them.
        let mut remap = vec![usize::MAX; keep.len()];
        let mut elements = Vec::new();
        let mut positions = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = elements.len();
                elements.push(g.elements[i]);
                positions.extend_from_slice(&g.positions[3 * i..3 * i + 3]);
            }
        }
        let mut bonds = Vec::new();
        for pair in g.bonds.chunks_exact(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            if a < keep.len() && b < keep.len() && keep[a] && keep[b] {
                bonds.push(remap[a] as i64);
                bonds.push(remap[b] as i64);
            }
        }
        BondGraph {
            timestep: g.timestep,
            elements,
            positions,
            bonds,
        }
    }
}

/// The portal's service definition: WSDL discovery, frame requests, and
/// runtime filter installation.
pub fn portal_service(location: &str) -> ServiceDef {
    ServiceDef::new("VizPortal", "urn:sbq:viz", location)
        .with_operation("get_wsdl", TypeDesc::Int, TypeDesc::Str)
        .with_operation(
            "get_frame",
            TypeDesc::struct_of(
                "frame_request",
                vec![("filter", TypeDesc::Str), ("format", TypeDesc::Str)],
            ),
            TypeDesc::Str,
        )
        .with_operation(
            "install_filter",
            TypeDesc::struct_of(
                "filter_def",
                vec![("name", TypeDesc::Str), ("spec", TypeDesc::Str)],
            ),
            TypeDesc::Int,
        )
}

/// The running portal.
pub struct ServicePortal {
    latest: Arc<Mutex<Option<BondGraph>>>,
    filters: Arc<RwLock<HashMap<String, FilterSpec>>>,
}

impl ServicePortal {
    /// Creates a portal subscribed to `channel` on `bus` (the channel
    /// must carry [`BondGraph`] values). A background thread drains the
    /// subscription into the portal's latest-frame slot.
    pub fn new(bus: &EchoBus, channel: &str) -> Result<ServicePortal, sbq_echo::EchoError> {
        let rx = bus.subscribe(channel)?;
        let latest = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&latest);
        std::thread::spawn(move || {
            for event in rx.iter() {
                if let Some(g) = BondGraph::from_value(&event) {
                    *slot.lock().unwrap() = Some(g);
                }
            }
        });
        Ok(ServicePortal {
            latest,
            filters: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// Renders one frame for a filter spec (or installed filter name) and
    /// output format (`svg` or `xml`).
    pub fn frame(&self, filter: &str, format: &str) -> String {
        let graph = self.latest.lock().unwrap().clone().unwrap_or(BondGraph {
            timestep: 0,
            elements: vec![],
            positions: vec![],
            bonds: vec![],
        });
        let spec = self
            .filters
            .read()
            .unwrap()
            .get(filter)
            .cloned()
            .or_else(|| FilterSpec::parse(filter))
            .unwrap_or(FilterSpec::Identity);
        let filtered = spec.apply(&graph);
        match format {
            "xml" => marshal::value_to_xml(&filtered.to_value(), "bond_graph"),
            // SVG is the default display format.
            _ => render_svg(&filtered),
        }
    }

    /// Installs (or replaces) a named filter at runtime.
    pub fn install_filter(&self, name: &str, spec: &str) -> bool {
        match FilterSpec::parse(spec) {
            Some(f) => {
                self.filters.write().unwrap().insert(name.to_string(), f);
                true
            }
            None => false,
        }
    }

    /// Starts serving over SOAP-binQ.
    pub fn serve(
        self,
        addr: SocketAddr,
        encoding: WireEncoding,
    ) -> Result<SoapServer, soap_binq::SoapError> {
        let svc = portal_service("http://0.0.0.0/viz");
        let wsdl = write_wsdl(&svc).expect("portal service renders to WSDL");
        let builder = SoapServerBuilder::new(&svc, encoding).expect("service compiles");
        let portal = Arc::new(self);
        let p = Arc::clone(&portal);
        let q = Arc::clone(&portal);
        builder
            .handle("get_wsdl", move |_| Value::Str(wsdl.clone()))
            .handle("get_frame", move |req| {
                let (filter, format) = match req.as_struct() {
                    Ok(s) => (
                        s.field("filter")
                            .and_then(|v| v.as_str().ok().map(str::to_string))
                            .unwrap_or_default(),
                        s.field("format")
                            .and_then(|v| v.as_str().ok().map(str::to_string))
                            .unwrap_or_default(),
                    ),
                    Err(_) => (String::new(), String::new()),
                };
                Value::Str(p.frame(&filter, &format))
            })
            .handle("install_filter", move |req| {
                let ok = req
                    .as_struct()
                    .ok()
                    .and_then(|s| {
                        let name = s.field("name")?.as_str().ok()?;
                        let spec = s.field("spec")?.as_str().ok()?;
                        Some(q.install_filter(name, spec))
                    })
                    .unwrap_or(false);
                Value::Int(ok as i64)
            })
            .bind(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_mdsim::Molecule;
    use soap_binq::SoapClient;

    fn sample_graph() -> BondGraph {
        let mut m = Molecule::branched_chain(50, 6);
        m.run(20);
        BondGraph::capture(&m, 1.2)
    }

    fn bus_with_bonds() -> (EchoBus, BondGraph) {
        let bus = EchoBus::new();
        bus.create_channel("bonds", BondGraph::type_desc()).unwrap();
        (bus, sample_graph())
    }

    #[test]
    fn filter_specs_parse() {
        assert_eq!(FilterSpec::parse("identity"), Some(FilterSpec::Identity));
        assert_eq!(
            FilterSpec::parse("elements:CN"),
            Some(FilterSpec::Elements(vec![b'C', b'N']))
        );
        assert_eq!(FilterSpec::parse("stride:3"), Some(FilterSpec::Stride(3)));
        assert_eq!(FilterSpec::parse("halfbox"), Some(FilterSpec::HalfBox));
        assert_eq!(FilterSpec::parse("stride:0"), None);
        assert_eq!(FilterSpec::parse("drop tables"), None);
    }

    #[test]
    fn element_filter_remaps_bonds() {
        let g = sample_graph();
        let f = FilterSpec::Elements(vec![b'C']).apply(&g);
        assert!(f.elements.iter().all(|&e| e == b'C'));
        assert!(f.elements.len() < g.elements.len());
        // All bond endpoints must be valid indices into the new atom set.
        assert!(f.bonds.iter().all(|&i| (i as usize) < f.elements.len()));
        assert_eq!(f.positions.len(), 3 * f.elements.len());
    }

    #[test]
    fn stride_filter_thins_atoms() {
        let g = sample_graph();
        let f = FilterSpec::Stride(2).apply(&g);
        assert_eq!(f.elements.len(), g.elements.len().div_ceil(2));
    }

    #[test]
    fn portal_tracks_latest_event() {
        let (bus, g) = bus_with_bonds();
        let portal = ServicePortal::new(&bus, "bonds").unwrap();
        bus.submit("bonds", g.to_value()).unwrap();
        // The drain thread is asynchronous; poll briefly.
        let mut frame = String::new();
        for _ in 0..100 {
            frame = portal.frame("identity", "svg");
            if frame.contains("circle") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(frame.contains("circle"), "portal never saw the event");
    }

    #[test]
    fn end_to_end_portal_over_soap() {
        let (bus, g) = bus_with_bonds();
        let portal = ServicePortal::new(&bus, "bonds").unwrap();
        bus.submit("bonds", g.to_value()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let server = portal
            .serve("127.0.0.1:0".parse().unwrap(), WireEncoding::Pbio)
            .unwrap();
        let svc = portal_service("x");
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();

        // (1)/(2): discover the WSDL.
        let wsdl = client.call("get_wsdl", Value::Int(0)).unwrap();
        let doc = wsdl.as_str().unwrap();
        assert!(doc.contains("VizPortal"));
        assert!(sbq_wsdl::parse_wsdl(doc).is_ok());

        // (3)-(5): request an SVG frame with a filter.
        let req = Value::struct_of(
            "frame_request",
            vec![
                ("filter", Value::Str("elements:C".into())),
                ("format", Value::Str("svg".into())),
            ],
        );
        let svg = client.call("get_frame", req).unwrap();
        assert!(svg.as_str().unwrap().starts_with("<?xml"));

        // Dynamically change the filter and output format.
        let inst = Value::struct_of(
            "filter_def",
            vec![
                ("name", Value::Str("mine".into())),
                ("spec", Value::Str("stride:2".into())),
            ],
        );
        assert_eq!(client.call("install_filter", inst).unwrap(), Value::Int(1));
        let req = Value::struct_of(
            "frame_request",
            vec![
                ("filter", Value::Str("mine".into())),
                ("format", Value::Str("xml".into())),
            ],
        );
        let xml = client.call("get_frame", req).unwrap();
        assert!(xml.as_str().unwrap().starts_with("<bond_graph>"));

        // Bad filter spec is rejected.
        let bad = Value::struct_of(
            "filter_def",
            vec![
                ("name", Value::Str("x".into())),
                ("spec", Value::Str("??".into())),
            ],
        );
        assert_eq!(client.call("install_filter", bad).unwrap(), Value::Int(0));
    }

    #[test]
    fn empty_portal_serves_empty_scene() {
        let (bus, _) = bus_with_bonds();
        let portal = ServicePortal::new(&bus, "bonds").unwrap();
        let svg = portal.frame("identity", "svg");
        assert!(svg.contains("<svg"));
        assert!(!svg.contains("circle"));
    }
}
