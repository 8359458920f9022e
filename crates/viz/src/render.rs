//! Bond graph → SVG scene.

use crate::svg::SvgDoc;
use sbq_mdsim::BondGraph;

/// Canvas size of rendered frames.
pub const CANVAS: (u32, u32) = (640, 480);

/// Renders a bond graph as an SVG document: orthographic projection onto
/// the x/y plane, auto-scaled to the canvas; bonds as gray lines, atoms
/// as element-colored circles (CPK-ish colors).
pub fn render_svg(graph: &BondGraph) -> String {
    let (w, h) = CANVAS;
    let mut doc = SvgDoc::new(w, h);
    doc.rect(0.0, 0.0, w as f64, h as f64, "#101018");

    let n = graph.elements.len();
    if n == 0 {
        return doc.finish();
    }

    // Bounding box of x/y coordinates.
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for i in 0..n {
        let (x, y) = (graph.positions[3 * i], graph.positions[3 * i + 1]);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let span = (max_x - min_x).max(max_y - min_y).max(1e-6);
    let margin = 30.0;
    let scale = (w as f64 - 2.0 * margin).min(h as f64 - 2.0 * margin) / span;
    let project = |i: usize| -> (f64, f64) {
        let x = margin + (graph.positions[3 * i] - min_x) * scale;
        let y = margin + (graph.positions[3 * i + 1] - min_y) * scale;
        (x, y)
    };

    // Bonds underneath.
    doc.group("opacity:0.8");
    for pair in graph.bonds.chunks_exact(2) {
        let (a, b) = (pair[0] as usize, pair[1] as usize);
        if a < n && b < n {
            let (x1, y1) = project(a);
            let (x2, y2) = project(b);
            doc.line(x1, y1, x2, y2, "#8899aa", 1.5);
        }
    }
    doc.end_group();

    // Atoms on top.
    for i in 0..n {
        let (x, y) = project(i);
        let (color, r) = element_style(graph.elements[i]);
        doc.circle(x, y, r, color);
    }

    doc.text(
        10.0,
        (h - 10) as f64,
        12,
        &format!("timestep {}", graph.timestep),
    );
    doc.finish()
}

fn element_style(element: u8) -> (&'static str, f64) {
    match element {
        b'C' => ("#c8c8c8", 5.0),
        b'N' => ("#3050f8", 5.0),
        b'O' => ("#ff0d0d", 5.5),
        b'H' => ("#ffffff", 3.0),
        _ => ("#ff69b4", 4.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_mdsim::Molecule;

    fn graph() -> BondGraph {
        let mut m = Molecule::branched_chain(40, 4);
        m.run(30);
        BondGraph::capture(&m, 1.2)
    }

    #[test]
    fn renders_every_atom_and_bond() {
        let g = graph();
        let svg = render_svg(&g);
        assert_eq!(svg.matches("<circle").count(), g.elements.len());
        assert_eq!(svg.matches("<line").count(), g.bonds.len() / 2);
        assert!(svg.contains("timestep 30"));
    }

    #[test]
    fn output_is_parseable_xml() {
        let svg = render_svg(&graph());
        let mut p = sbq_xml::PullParser::new(&svg);
        loop {
            if p.next().unwrap() == sbq_xml::Event::Eof {
                break;
            }
        }
    }

    #[test]
    fn coordinates_stay_on_canvas() {
        let svg = render_svg(&graph());
        let mut p = sbq_xml::PullParser::new(&svg);
        loop {
            match p.next().unwrap() {
                sbq_xml::Event::Start {
                    name: "circle",
                    attrs,
                } => {
                    let get = |k: &str| -> f64 {
                        attrs
                            .iter()
                            .find(|(n, _)| *n == k)
                            .unwrap()
                            .1
                            .parse()
                            .unwrap()
                    };
                    let (cx, cy) = (get("cx"), get("cy"));
                    assert!((0.0..=640.0).contains(&cx), "cx {cx}");
                    assert!((0.0..=480.0).contains(&cy), "cy {cy}");
                }
                sbq_xml::Event::Eof => break,
                _ => {}
            }
        }
    }

    #[test]
    fn empty_graph_renders_background_only() {
        let g = BondGraph {
            timestep: 0,
            elements: vec![],
            positions: vec![],
            bonds: vec![],
        };
        let svg = render_svg(&g);
        assert!(svg.contains("<rect"));
        assert!(!svg.contains("<circle"));
    }
}
