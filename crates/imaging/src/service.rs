//! The adaptive image service (paper Fig. 8).
//!
//! "The application starts with the client sending a request to the
//! server for an image, identified by its filename, and an operation to
//! be performed on it. In this case, it is edge detection on PPM images…
//! the quality file is written to allow the server to resize the output
//! image to 320x240 resolution when response times are high."

use crate::ppm::PpmImage;
use crate::{starfield, transform};
use sbq_model::{TypeDesc, Value};
use sbq_qos::{HandlerRegistry, QualityAttributes, QualityFile, QualityManager};
use sbq_wsdl::ServiceDef;
use soap_binq::{SoapServer, SoapServerBuilder, WireEncoding};
use std::collections::HashMap;
use std::net::SocketAddr;

/// Schema of the image message: dimensions plus raw RGB bytes.
pub fn image_type() -> TypeDesc {
    TypeDesc::struct_of(
        "image",
        vec![
            ("width", TypeDesc::Int),
            ("height", TypeDesc::Int),
            ("pixels", TypeDesc::Bytes),
        ],
    )
}

/// Schema of an image request: file name plus requested transformation.
pub fn request_type() -> TypeDesc {
    TypeDesc::struct_of(
        "image_request",
        vec![("name", TypeDesc::Str), ("operation", TypeDesc::Str)],
    )
}

/// Converts an image into its message value, moving the pixels.
pub fn image_into_value(img: PpmImage) -> Value {
    Value::struct_of(
        "image",
        vec![
            ("width", Value::Int(img.width as i64)),
            ("height", Value::Int(img.height as i64)),
            ("pixels", Value::Bytes(img.data)),
        ],
    )
}

/// Converts an image into its message value, copying the pixels.
pub fn image_to_value(img: &PpmImage) -> Value {
    image_into_value(img.clone())
}

/// Borrows `(width, height, pixels)` from an image value, if well-formed.
fn image_parts(value: &Value) -> Option<(usize, usize, &[u8])> {
    let s = value.as_struct().ok()?;
    let width = usize::try_from(s.field("width")?.as_int().ok()?).ok()?;
    let height = usize::try_from(s.field("height")?.as_int().ok()?).ok()?;
    let data = s.field("pixels")?.as_bytes().ok()?;
    let expected = width.checked_mul(height)?.checked_mul(3)?;
    (data.len() == expected).then_some((width, height, data))
}

/// Reconstructs an image from its message value, if well-formed.
pub fn value_to_image(value: &Value) -> Option<PpmImage> {
    let (width, height, data) = image_parts(value)?;
    Some(PpmImage {
        width,
        height,
        data: data.to_vec(),
    })
}

/// The image service definition (what its WSDL advertises).
pub fn image_service(location: &str) -> ServiceDef {
    ServiceDef::new("ImageService", "urn:sbq:imaging", location)
        .with_operation("get_image", request_type(), image_type())
        .with_operation(
            "list_images",
            TypeDesc::Int,
            TypeDesc::list_of(TypeDesc::Str),
        )
}

/// The Fig. 8 quality file: full resolution under `threshold_ms`, half
/// resolution above (320x240 when response times are high).
pub fn image_quality_file(threshold_ms: f64) -> QualityFile {
    QualityFile::parse(&format!(
        "attribute rtt\n0 {threshold_ms} - image_full\n{threshold_ms} inf - image_half\nhandler image_half resize_half\n"
    ))
    .expect("static quality file is valid")
}

/// Installs the resizing quality handlers ("applying resizing handlers to
/// images", §III-B.b). They read the pixels in place and allocate only
/// the reduced image; a value that is not an image passes through.
pub fn install_resize_handlers(registry: &HandlerRegistry) {
    registry.install("resize_half", downscale_by(2));
    registry.install("resize_quarter", downscale_by(4));
}

/// A handler shrinking both image dimensions by `factor` (at least 1 px).
fn downscale_by(factor: usize) -> impl Fn(&Value, &QualityAttributes) -> Value {
    move |v, _attrs| match image_parts(v) {
        Some((w, h, pixels)) => image_into_value(transform::resize_rgb(
            pixels,
            w,
            h,
            (w / factor).max(1),
            (h / factor).max(1),
        )),
        None => v.clone(),
    }
}

/// A named collection of images (the paper's "collection of servers, each
/// of them possessing a set of images collected by remote telescopes" is
/// collapsed to one store per server).
#[derive(Debug, Clone, Default)]
pub struct ImageStore {
    images: HashMap<String, PpmImage>,
}

impl ImageStore {
    /// An empty store.
    pub fn new() -> ImageStore {
        ImageStore::default()
    }

    /// A store with `n` synthetic star-field exposures named `sky-<i>`,
    /// all at the paper's 640x480 resolution.
    pub fn with_starfields(n: usize, seed: u64) -> ImageStore {
        let mut store = ImageStore::new();
        for i in 0..n {
            store.insert(
                format!("sky-{i}"),
                starfield::generate(640, 480, 120, seed + i as u64),
            );
        }
        store
    }

    /// Adds an image.
    pub fn insert(&mut self, name: impl Into<String>, img: PpmImage) {
        self.images.insert(name.into(), img);
    }

    /// Fetches an image by name.
    pub fn get(&self, name: &str) -> Option<&PpmImage> {
        self.images.get(name)
    }

    /// Sorted image names.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.images.keys().cloned().collect();
        v.sort();
        v
    }

    /// Handles a `get_image` request value: looks the image up, applies
    /// the requested transformation, returns the image value (black
    /// 1x1 placeholder for unknown names/operations, mirroring lenient
    /// server behavior).
    pub fn handle_get_image(&self, request: Value) -> Value {
        let fallback = || image_into_value(PpmImage::new(1, 1));
        let Ok(s) = request.as_struct() else {
            return fallback();
        };
        let (Some(name), Some(op)) = (s.field("name"), s.field("operation")) else {
            return fallback();
        };
        let (Ok(name), Ok(op)) = (name.as_str(), op.as_str()) else {
            return fallback();
        };
        match self.get(name).and_then(|img| transform::apply(img, op)) {
            Some(result) => image_into_value(result),
            None => fallback(),
        }
    }

    /// Starts the image server. When `quality_threshold_ms` is given, the
    /// server quality-manages responses with the Fig. 8 policy.
    pub fn serve(
        self,
        addr: SocketAddr,
        encoding: WireEncoding,
        quality_threshold_ms: Option<f64>,
    ) -> Result<SoapServer, soap_binq::SoapError> {
        let svc = image_service("http://0.0.0.0/imaging");
        let mut builder = SoapServerBuilder::new(&svc, encoding)
            .expect("image service compiles with default formats");
        if let Some(threshold) = quality_threshold_ms {
            let qm = QualityManager::new(image_quality_file(threshold));
            install_resize_handlers(qm.handlers());
            builder = builder.with_quality(qm);
        }
        let names = self.names();
        let store = std::sync::Arc::new(self);
        let st = std::sync::Arc::clone(&store);
        builder
            .handle("get_image", move |req| st.handle_get_image(req))
            .handle("list_images", move |_| {
                Value::List(names.iter().map(|n| Value::Str(n.clone())).collect())
            })
            .bind(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soap_binq::SoapClient;
    use std::time::Duration;

    #[test]
    fn image_value_round_trips() {
        let img = starfield::generate(32, 24, 5, 1);
        let v = image_to_value(&img);
        assert!(v.conforms_to(&image_type()));
        assert_eq!(value_to_image(&v).unwrap(), img);
    }

    #[test]
    fn corrupt_image_values_rejected() {
        let v = Value::struct_of(
            "image",
            vec![
                ("width", Value::Int(100)),
                ("height", Value::Int(100)),
                ("pixels", Value::Bytes(vec![0; 10])), // wrong length
            ],
        );
        assert!(value_to_image(&v).is_none());
        assert!(value_to_image(&Value::Int(3)).is_none());
    }

    #[test]
    fn store_serves_transformed_images_over_soap() {
        let store = ImageStore::with_starfields(2, 42);
        let expected = transform::edge_detect(store.get("sky-0").unwrap());
        let server = store
            .serve("127.0.0.1:0".parse().unwrap(), WireEncoding::Pbio, None)
            .unwrap();
        let svc = image_service("x");
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();

        let names = client.call("list_images", Value::Int(0)).unwrap();
        assert_eq!(
            names,
            Value::List(vec![Value::Str("sky-0".into()), Value::Str("sky-1".into())])
        );

        let req = Value::struct_of(
            "image_request",
            vec![
                ("name", Value::Str("sky-0".into())),
                ("operation", Value::Str("edge_detect".into())),
            ],
        );
        let resp = client.call("get_image", req).unwrap();
        assert_eq!(value_to_image(&resp).unwrap(), expected);
    }

    #[test]
    fn congestion_halves_resolution() {
        let store = ImageStore::with_starfields(1, 7);
        let server = store
            .serve(
                "127.0.0.1:0".parse().unwrap(),
                WireEncoding::Pbio,
                Some(50.0),
            )
            .unwrap();
        let svc = image_service("x");
        let qm = QualityManager::new(image_quality_file(50.0));
        install_resize_handlers(qm.handlers());
        let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio)
            .unwrap()
            .with_quality(qm);

        let req = || {
            Value::struct_of(
                "image_request",
                vec![
                    ("name", Value::Str("sky-0".into())),
                    ("operation", Value::Str("identity".into())),
                ],
            )
        };

        // Fast network: full 640x480.
        let v = client.call("get_image", req()).unwrap();
        let img = value_to_image(&v).unwrap();
        assert_eq!((img.width, img.height), (640, 480));

        // Report congestion; server should return 320x240.
        client
            .quality_mut()
            .unwrap()
            .observe_rtt(Duration::from_millis(400), Duration::ZERO);
        let v = client.call("get_image", req()).unwrap();
        let img = value_to_image(&v).unwrap();
        assert_eq!((img.width, img.height), (320, 240));
        assert_eq!(
            client.stats().last_message_type.as_deref(),
            Some("image_half")
        );
    }

    #[test]
    fn unknown_image_or_operation_yields_placeholder() {
        let store = ImageStore::with_starfields(1, 7);
        let bad = Value::struct_of(
            "image_request",
            vec![
                ("name", Value::Str("nope".into())),
                ("operation", Value::Str("identity".into())),
            ],
        );
        let img = value_to_image(&store.handle_get_image(bad)).unwrap();
        assert_eq!((img.width, img.height), (1, 1));
    }
}
