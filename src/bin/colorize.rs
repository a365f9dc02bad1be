//! `colorize` — command-line front end: color a deployment from a file.
//!
//! ```text
//! colorize --points FILE.csv [--radius R] [--seed S] [--svg OUT.svg]
//!          [--dot OUT.dot] [--wake sync|uniform|sequential] [--scale F]
//! colorize --edges FILE.txt [--n N] [...]
//! ```
//!
//! Input formats:
//! * `--points`: CSV with one `x,y` pair per line (optional header);
//!   the graph is the unit disk graph with `--radius` (default 1.0).
//! * `--edges`: whitespace-separated `u v` pairs, node ids `0..n`
//!   (`--n` overrides the inferred node count).
//!
//! Output: a CSV of `node,color,leader,decided_slot` on stdout plus
//! optional SVG/DOT renderings. Exit code 1 on failure to color.

use radio_graph::analysis::independence::{kappa_bounded, kappa_greedy, Kappa};
use radio_graph::generators::build_udg;
use radio_graph::geometry::Point2;
use radio_graph::io::{to_dot, to_svg};
use radio_graph::{Graph, GraphBuilder};
use radio_sim::rng::node_rng;
use radio_sim::WakePattern;
use urn_coloring::{color_graph, AlgorithmParams, ColoringConfig};

struct Args {
    points_file: Option<String>,
    edges_file: Option<String>,
    n_override: Option<usize>,
    radius: f64,
    seed: u64,
    svg: Option<String>,
    dot: Option<String>,
    wake: String,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        points_file: None,
        edges_file: None,
        n_override: None,
        radius: 1.0,
        seed: 42,
        svg: None,
        dot: None,
        wake: "uniform".into(),
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--points" => args.points_file = Some(next("--points")?),
            "--edges" => args.edges_file = Some(next("--edges")?),
            "--n" => args.n_override = Some(next("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
            "--radius" => {
                args.radius = next("--radius")?
                    .parse()
                    .map_err(|e| format!("--radius: {e}"))?
            }
            "--seed" => {
                args.seed = next("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--svg" => args.svg = Some(next("--svg")?),
            "--dot" => args.dot = Some(next("--dot")?),
            "--wake" => args.wake = next("--wake")?,
            "--scale" => {
                args.scale = next("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--help" | "-h" => {
                println!("usage: colorize (--points FILE | --edges FILE) [--n N] [--radius R] [--seed S]");
                println!("                [--svg OUT] [--dot OUT] [--wake sync|uniform|sequential] [--scale F]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.points_file.is_none() == args.edges_file.is_none() {
        return Err("exactly one of --points or --edges is required".into());
    }
    Ok(args)
}

/// Parses `x,y` lines (blank lines and a non-numeric header allowed).
fn parse_points(text: &str) -> Result<Vec<Point2>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let (Some(xs), Some(ys)) = (parts.next(), parts.next()) else {
            return Err(format!("line {}: expected x,y", i + 1));
        };
        match (xs.parse::<f64>(), ys.parse::<f64>()) {
            (Ok(x), Ok(y)) => out.push(Point2::new(x, y)),
            _ if i == 0 => continue, // header row
            _ => return Err(format!("line {}: bad numbers '{line}'", i + 1)),
        }
    }
    if out.is_empty() {
        return Err("no points parsed".into());
    }
    Ok(out)
}

/// Parses whitespace-separated `u v` edge pairs.
fn parse_edges(text: &str, n_override: Option<usize>) -> Result<Graph, String> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(us), Some(vs)) = (parts.next(), parts.next()) else {
            return Err(format!("line {}: expected 'u v'", i + 1));
        };
        let u: u32 = us.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
        let v: u32 = vs.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = n_override.unwrap_or(max_id as usize + 1);
    if n <= max_id as usize {
        return Err(format!("--n {n} too small for node id {max_id}"));
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// `κ₁=…, κ₂=…`, each value marked `+` when it is only the greedy lower
/// bound, as the experiment tables mark an inexact κ.
fn kappa_text(k: Kappa, exact: bool) -> String {
    let mark = if exact { "" } else { "+" };
    format!("κ₁={}{mark}, κ₂={}{mark}", k.k1, k.k2)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            std::process::exit(2);
        }
    };

    let (graph, points) = if let Some(f) = &args.points_file {
        let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("error: cannot read {f}: {e}");
            std::process::exit(2);
        });
        let pts = parse_points(&text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        (build_udg(&pts, args.radius), Some(pts))
    } else {
        let f = args.edges_file.as_ref().expect("one input checked");
        let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("error: cannot read {f}: {e}");
            std::process::exit(2);
        });
        let g = parse_edges(&text, args.n_override).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        (g, None)
    };

    let n = graph.len();
    let (kappa, exact) = match kappa_bounded(&graph, 5_000_000) {
        Some(k) => (k, true),
        None => (kappa_greedy(&graph), false),
    };
    let params =
        AlgorithmParams::practical(kappa.k2.max(2), graph.max_closed_degree().max(2), n.max(16))
            .scaled(args.scale);
    eprintln!(
        "n={n}, links={}, Δ={}, {}; waiting {} slots, threshold {}",
        graph.num_edges(),
        graph.max_closed_degree(),
        kappa_text(kappa, exact),
        params.waiting_slots(),
        params.threshold()
    );
    if !exact {
        eprintln!("note: the exact κ solver ran out of fuel; κ marked + is a greedy lower bound");
    }

    let mut rng = node_rng(args.seed, 0);
    let wake = match args.wake.as_str() {
        "sync" => WakePattern::Synchronous.generate(n, &mut rng),
        "uniform" => WakePattern::UniformWindow {
            window: 2 * params.waiting_slots(),
        }
        .generate(n, &mut rng),
        "sequential" => WakePattern::SequentialShuffled {
            gap: params.serve_slots(),
        }
        .generate(n, &mut rng),
        other => {
            eprintln!("error: unknown wake pattern '{other}'");
            std::process::exit(2);
        }
    };

    let outcome = color_graph(&graph, &wake, &ColoringConfig::new(params), args.seed);
    if !outcome.all_decided || !outcome.valid() {
        eprintln!(
            "FAILED: decided={} proper={} complete={} conflicts={:?}",
            outcome.all_decided,
            outcome.report.proper,
            outcome.report.complete,
            outcome.report.conflicts
        );
        std::process::exit(1);
    }
    eprintln!(
        "colored with {} distinct colors (span {}), {} leaders, max T_v = {} slots",
        outcome.report.distinct_colors,
        outcome.report.max_color.unwrap() + 1,
        outcome.leaders.len(),
        outcome.max_decision_time().unwrap()
    );

    println!("node,color,leader,decided_slot");
    for v in 0..n {
        println!(
            "{v},{},{},{}",
            outcome.colors[v].unwrap(),
            outcome.leaders.contains(&(v as u32)),
            outcome.stats[v].decided_at.unwrap()
        );
    }

    if let Some(path) = &args.svg {
        match &points {
            Some(pts) => {
                let svg = to_svg(&graph, pts, Some(&outcome.colors), &[], 900.0);
                if let Err(e) = std::fs::write(path, svg) {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("wrote {path}");
            }
            None => eprintln!("note: --svg needs --points input (positions); skipped"),
        }
    }
    if let Some(path) = &args.dot {
        let dot = to_dot(&graph, points.as_deref(), Some(&outcome.colors));
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_points_with_header_and_blanks() {
        let pts = parse_points("x,y\n0.0,1.0\n\n2.5,3.5\n").unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].x, 2.5);
    }

    #[test]
    fn parse_points_rejects_garbage() {
        assert!(parse_points("1.0,2.0\nfoo,bar\n").is_err());
        assert!(parse_points("").is_err());
        assert!(parse_points("1.0\n").is_err());
    }

    #[test]
    fn parse_edges_infers_n() {
        let g = parse_edges("0 1\n1 2\n# comment\n\n2 3\n", None).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn kappa_text_marks_greedy_fallback() {
        let k = Kappa { k1: 4, k2: 11 };
        assert_eq!(kappa_text(k, true), "κ₁=4, κ₂=11");
        assert_eq!(kappa_text(k, false), "κ₁=4+, κ₂=11+");
    }

    #[test]
    fn parse_edges_n_override() {
        let g = parse_edges("0 1\n", Some(5)).unwrap();
        assert_eq!(g.len(), 5);
        assert!(parse_edges("0 9\n", Some(5)).is_err());
        assert!(parse_edges("0\n", None).is_err());
    }
}
