//! The format server as a network service.
//!
//! The paper treats the format server as a distinct party: "Every PBIO
//! transaction begins with a registration of the format with a 'format
//! server', which collects and caches PBIO formats. Whenever a new type
//! is encountered, the application consults the format server to
//! interpret the message. This transaction occurs only once, since the
//! format is cached locally thereafter." (§III-B.a)
//!
//! [`serve_format_directory`] exposes a [`FormatServer`] over HTTP;
//! [`RemoteFormatServer`] is the consulting client — it implements
//! [`FormatDirectory`], caches every answer locally (so each consultation
//! genuinely "occurs only once"), and plugs into
//! [`crate::PbioEndpoint::with_directory`].
//!
//! Wire protocol (kept deliberately tiny):
//! * `POST /register` with a serialized [`FormatDesc`] body → the id as
//!   8 ASCII decimal digits;
//! * `GET /format/<id>` → the serialized description, or 404.

use crate::format::FormatDesc;
use crate::server::{FormatDirectory, FormatServer};
use crate::PbioError;
use sbq_http::{HttpClient, HttpServer, Request, Response, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// Serves a format server over HTTP. Returns the listening handle (the
/// address is `handle.addr()`).
pub fn serve_format_directory(
    server: Arc<FormatServer>,
    addr: SocketAddr,
) -> std::io::Result<ServerHandle> {
    HttpServer::bind(addr, move |req: &Request| {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/register") => match FormatDesc::from_bytes(&req.body) {
                Ok(desc) => {
                    let id = server.register(&desc);
                    Response::ok("text/plain", format!("{id:08}").into_bytes())
                }
                Err(e) => Response::with_status(
                    400,
                    "Bad Request",
                    "text/plain",
                    e.to_string().into_bytes(),
                ),
            },
            ("GET", path) if path.starts_with("/format/") => {
                match path["/format/".len()..]
                    .parse::<u32>()
                    .ok()
                    .and_then(|id| server.lookup(id))
                {
                    Some(desc) => Response::ok("application/octet-stream", desc.to_bytes()),
                    None => Response::with_status(404, "Not Found", "text/plain", Vec::new()),
                }
            }
            _ => Response::with_status(404, "Not Found", "text/plain", Vec::new()),
        }
    })
}

/// A consulting client for a remote format directory.
///
/// Thread-safe; every successful answer is cached so repeat registrations
/// and lookups never touch the network again.
pub struct RemoteFormatServer {
    addr: SocketAddr,
    http: Mutex<Option<HttpClient>>,
    ids: RwLock<HashMap<FormatDesc, u32>>,
    descs: RwLock<HashMap<u32, FormatDesc>>,
    consultations: std::sync::atomic::AtomicU64,
}

impl RemoteFormatServer {
    /// Creates a client for the directory at `addr` (connection is lazy
    /// and re-established on failure).
    pub fn connect(addr: SocketAddr) -> RemoteFormatServer {
        RemoteFormatServer {
            addr,
            http: Mutex::new(None),
            ids: RwLock::new(HashMap::new()),
            descs: RwLock::new(HashMap::new()),
            consultations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Network round trips performed (cache misses only).
    pub fn consultations(&self) -> u64 {
        self.consultations
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn request(&self, req: Request) -> Result<Response, PbioError> {
        self.consultations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut guard = self.http.lock().unwrap();
        // One reconnect attempt on a dead keep-alive connection.
        for attempt in 0..2 {
            if guard.is_none() {
                *guard = Some(
                    HttpClient::connect(self.addr)
                        .map_err(|e| PbioError::Directory(e.to_string()))?,
                );
            }
            match guard.as_mut().expect("connected above").send(req.clone()) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    *guard = None;
                    if attempt == 1 {
                        return Err(PbioError::Directory(e.to_string()));
                    }
                }
            }
        }
        unreachable!("loop returns on success or second failure")
    }
}

impl FormatDirectory for RemoteFormatServer {
    fn register(&self, desc: &FormatDesc) -> Result<u32, PbioError> {
        if let Some(&id) = self.ids.read().unwrap().get(desc) {
            return Ok(id);
        }
        let req = Request::post("/register", "application/octet-stream", desc.to_bytes());
        let resp = self.request(req)?;
        if resp.status != 200 {
            return Err(PbioError::Directory(format!(
                "register returned {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            )));
        }
        let id: u32 = std::str::from_utf8(&resp.body)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| PbioError::Directory("unparseable register response".into()))?;
        self.ids.write().unwrap().insert(desc.clone(), id);
        self.descs.write().unwrap().insert(id, desc.clone());
        Ok(id)
    }

    fn lookup(&self, id: u32) -> Result<Option<FormatDesc>, PbioError> {
        if let Some(d) = self.descs.read().unwrap().get(&id) {
            return Ok(Some(d.clone()));
        }
        let resp = self.request(Request::get(&format!("/format/{id}")))?;
        match resp.status {
            200 => {
                let desc = FormatDesc::from_bytes(&resp.body)?;
                self.descs.write().unwrap().insert(id, desc.clone());
                self.ids.write().unwrap().insert(desc.clone(), id);
                Ok(Some(desc))
            }
            404 => Ok(None),
            s => Err(PbioError::Directory(format!("lookup returned {s}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatOptions;
    use crate::PbioEndpoint;
    use sbq_model::workload;

    fn spawn_directory() -> (Arc<FormatServer>, ServerHandle) {
        let server = Arc::new(FormatServer::new());
        let handle =
            serve_format_directory(Arc::clone(&server), "127.0.0.1:0".parse().unwrap()).unwrap();
        (server, handle)
    }

    fn desc(depth: usize) -> FormatDesc {
        FormatDesc::from_type(
            &workload::nested_struct_type(depth),
            FormatOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn remote_register_and_lookup_round_trip() {
        let (backing, handle) = spawn_directory();
        let remote = RemoteFormatServer::connect(handle.addr());
        let d = desc(2);
        let id = remote.register(&d).unwrap();
        assert_eq!(backing.lookup(id), Some(d.clone()));
        assert_eq!(remote.lookup(id).unwrap(), Some(d.clone()));
        assert_eq!(remote.lookup(9999).unwrap(), None);
        // Repeats hit the cache: exactly 3 network trips above
        // (register, lookup-miss-from-cache? no — lookup(id) was cached by
        // register, so trips are register + lookup(9999)).
        let before = remote.consultations();
        let _ = remote.register(&d).unwrap();
        let _ = remote.lookup(id).unwrap();
        assert_eq!(remote.consultations(), before, "cache must absorb repeats");
    }

    #[test]
    fn two_processes_agree_on_ids_via_remote_directory() {
        let (_backing, handle) = spawn_directory();
        let a = RemoteFormatServer::connect(handle.addr());
        let b = RemoteFormatServer::connect(handle.addr());
        let d = desc(3);
        assert_eq!(a.register(&d).unwrap(), b.register(&d).unwrap());
    }

    #[test]
    fn endpoints_interoperate_through_a_remote_directory() {
        let (_backing, handle) = spawn_directory();
        let mut tx =
            PbioEndpoint::with_directory(Arc::new(RemoteFormatServer::connect(handle.addr())));
        let mut rx =
            PbioEndpoint::with_directory(Arc::new(RemoteFormatServer::connect(handle.addr())));
        let d = desc(2);
        let v = workload::nested_struct(2, 7);

        // Drop the registration message: the receiver must consult the
        // remote format server, exactly the paper's workflow.
        let msgs = tx.send(&v, &d).unwrap();
        let data = msgs.last().unwrap();
        let got = rx.receive(data, None).unwrap().unwrap();
        assert_eq!(got, v);
        assert_eq!(rx.stats().server_consultations, 1);

        // Second message: local caches make the directory silent.
        let msgs2 = tx.send(&v, &d).unwrap();
        assert_eq!(msgs2.len(), 1);
        let got2 = rx.receive(&msgs2[0], None).unwrap().unwrap();
        assert_eq!(got2, v);
        assert_eq!(
            rx.stats().server_consultations,
            1,
            "consultation occurs only once"
        );
    }

    #[test]
    fn garbage_registration_rejected() {
        let (_backing, handle) = spawn_directory();
        let mut http = HttpClient::connect(handle.addr()).unwrap();
        let resp = http
            .post("/register", "application/octet-stream", vec![1, 2, 3])
            .unwrap();
        assert_eq!(resp.status, 400);
        let resp = http.send(Request::get("/format/not-a-number")).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn dead_directory_reported_not_panicking() {
        // Connect to a port nobody listens on.
        let remote = RemoteFormatServer::connect("127.0.0.1:1".parse().unwrap());
        let err = remote.register(&desc(1)).unwrap_err();
        assert!(matches!(err, PbioError::Directory(_)), "{err}");
    }
}
