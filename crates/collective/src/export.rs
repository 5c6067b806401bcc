//! Exporting synthesized algorithms for consumption by CCLs.
//!
//! The paper's output is "a topology-aware collective algorithm (i.e.,
//! static path of each chunk), which can then be utilized by CCLs in lieu
//! of the predefined topology-unaware basic algorithms" (Fig. 3). This
//! module serializes a [`CollectiveAlgorithm`] into:
//!
//! * [`to_json`] — a complete, machine-readable transfer dump;
//! * [`to_msccl_xml`] — an MSCCL-interpreter-style XML skeleton (one
//!   `<gpu>` per NPU, one `<tb>` (threadblock) per peer, `<step>`s in
//!   dependency order), close enough in shape to feed a converter for
//!   MSCCL/MSCCL++-style runtimes.
//!
//! Both encoders are hand-rolled: `serde_json` is not in the allowed
//! offline crate set (DESIGN.md §2).

use std::fmt::Write as _;

use tacos_topology::Time;

use crate::algorithm::{CollectiveAlgorithm, Transfer, TransferId, TransferKind};

/// Serializes the full algorithm as compact JSON.
///
/// Schema: `{name, num_npus, chunk_size, total_size, planned_time_ps?,
/// transfers: [{chunk, count, src, dst, kind, link?, start_ps?,
/// duration_ps?, deps: [..]}]}`.
pub fn to_json(algo: &CollectiveAlgorithm) -> String {
    let mut out = String::with_capacity(algo.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"num_npus\":{},\"chunk_size\":{},\"total_size\":{}",
        escape(algo.name()),
        algo.num_npus(),
        algo.chunk_size().as_u64(),
        algo.total_size().as_u64()
    );
    if let Some(t) = algo.planned_time() {
        let _ = write!(out, ",\"planned_time_ps\":{}", t.as_ps());
    }
    out.push_str(",\"transfers\":[");
    let deps = algo.dependencies();
    for (i, (t, deps)) in algo.transfers().iter().zip(deps.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"chunk\":{},\"count\":{},\"src\":{},\"dst\":{},\"kind\":\"{}\"",
            t.chunk().raw(),
            t.count(),
            t.src().raw(),
            t.dst().raw(),
            kind_name(t.kind()),
        );
        if let Some(l) = t.link() {
            let _ = write!(out, ",\"link\":{}", l.raw());
        }
        if let Some(s) = t.start() {
            let _ = write!(out, ",\"start_ps\":{}", s.as_ps());
        }
        if let Some(d) = t.duration() {
            let _ = write!(out, ",\"duration_ps\":{}", d.as_ps());
        }
        out.push_str(",\"deps\":[");
        push_list(&mut out, deps);
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serializes the algorithm as MSCCL-interpreter-style XML.
///
/// Structure: `<algo>` → one `<gpu>` per NPU → one `<tb>` (threadblock)
/// per (peer, direction) → `<step>`s ordered by schedule. Each send step
/// names the chunk and whether the receiver reduces (`rrc`) or copies
/// (`r`) — the subset of MSCCL's vocabulary needed to express static
/// chunk routes.
pub fn to_msccl_xml(algo: &CollectiveAlgorithm) -> String {
    let n = algo.num_npus();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<algo name=\"{}\" nchunksperloop=\"{}\" nchannels=\"1\" proto=\"Simple\" ngpus=\"{}\">",
        escape(algo.name()),
        algo.transfers()
            .iter()
            .map(|t| t.chunk().raw() + t.count())
            .max()
            .unwrap_or(0),
        n
    );
    for gpu in 0..n {
        let _ = writeln!(out, "  <gpu id=\"{gpu}\">");
        // One threadblock per peer this GPU sends to, one per peer it
        // receives from (MSCCL's send/recv separation).
        let mut sends: Vec<(usize, Vec<(usize, &Transfer)>)> = Vec::new();
        let mut recvs: Vec<(usize, Vec<(usize, &Transfer)>)> = Vec::new();
        for (i, t) in algo.transfers().iter().enumerate() {
            if t.src().index() == gpu {
                match sends.iter_mut().find(|(p, _)| *p == t.dst().index()) {
                    Some((_, list)) => list.push((i, t)),
                    None => sends.push((t.dst().index(), vec![(i, t)])),
                }
            }
            if t.dst().index() == gpu {
                match recvs.iter_mut().find(|(p, _)| *p == t.src().index()) {
                    Some((_, list)) => list.push((i, t)),
                    None => recvs.push((t.src().index(), vec![(i, t)])),
                }
            }
        }
        let mut tb = 0usize;
        for (peer, steps) in &sends {
            let _ = writeln!(
                out,
                "    <tb id=\"{tb}\" send=\"{peer}\" recv=\"-1\" chan=\"0\">"
            );
            for (s, (id, t)) in steps.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "      <step s=\"{s}\" type=\"s\" srcbuf=\"o\" srcoff=\"{}\" cnt=\"{}\" \
                     depid=\"{}\" hasdep=\"0\"/>",
                    t.chunk().raw(),
                    t.count(),
                    id
                );
            }
            let _ = writeln!(out, "    </tb>");
            tb += 1;
        }
        for (peer, steps) in &recvs {
            let _ = writeln!(
                out,
                "    <tb id=\"{tb}\" send=\"-1\" recv=\"{peer}\" chan=\"0\">"
            );
            for (s, (id, t)) in steps.iter().enumerate() {
                let ty = match t.kind() {
                    TransferKind::Copy => "r",
                    TransferKind::Reduce => "rrc",
                };
                let _ = writeln!(
                    out,
                    "      <step s=\"{s}\" type=\"{ty}\" dstbuf=\"o\" dstoff=\"{}\" cnt=\"{}\" \
                     depid=\"{}\" hasdep=\"0\"/>",
                    t.chunk().raw(),
                    t.count(),
                    id
                );
            }
            let _ = writeln!(out, "    </tb>");
            tb += 1;
        }
        let _ = writeln!(out, "  </gpu>");
    }
    out.push_str("</algo>\n");
    out
}

/// Serializes the algorithm into the compact line-based `.tacos` format —
/// the round-trippable on-disk representation used to cache synthesized
/// schedules between runs (deserialize with [`from_compact`]).
///
/// Format: a header line
/// `tacos-algo v1 <name> <num_npus> <chunk_size> <total_size> <planned_ps|->`
/// followed by one line per transfer:
/// `<chunk> <count> <src> <dst> <C|R> <link|-> <start_ps|-> <dur_ps|-> <dep,dep,...|->`.
pub fn to_compact(algo: &CollectiveAlgorithm) -> String {
    let mut out = String::with_capacity(algo.len() * 48 + 64);
    out.push_str("tacos-algo v1 ");
    out.push_str(&algo.name().replace(' ', "_"));
    for v in [
        algo.num_npus() as u64,
        algo.chunk_size().as_u64(),
        algo.total_size().as_u64(),
    ] {
        out.push(' ');
        push_u64(&mut out, v);
    }
    out.push(' ');
    push_opt(&mut out, algo.planned_time().map(Time::as_ps));
    out.push('\n');
    let deps = algo.dependencies();
    for (t, deps) in algo.transfers().iter().zip(deps.iter()) {
        for v in [t.chunk().raw(), t.count(), t.src().raw(), t.dst().raw()] {
            push_u64(&mut out, u64::from(v));
            out.push(' ');
        }
        out.push_str(match t.kind() {
            TransferKind::Copy => "C ",
            TransferKind::Reduce => "R ",
        });
        push_opt(&mut out, t.link().map(|l| u64::from(l.raw())));
        out.push(' ');
        push_opt(&mut out, t.start().map(Time::as_ps));
        out.push(' ');
        push_opt(&mut out, t.duration().map(Time::as_ps));
        out.push(' ');
        if deps.is_empty() {
            out.push('-');
        } else {
            push_list(&mut out, deps);
        }
        out.push('\n');
    }
    out
}

/// Appends the decimal digits of `v` without going through `fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `v`, or `-` for `None`.
fn push_opt(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => push_u64(out, v),
        None => out.push('-'),
    }
}

/// Appends a comma-separated list of transfer ids.
fn push_list(out: &mut String, ids: &[TransferId]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, id.index() as u64);
    }
}

/// Parses the compact format produced by [`to_compact`].
///
/// # Errors
/// Returns a human-readable description of the first malformed line.
pub fn from_compact(text: &str) -> Result<CollectiveAlgorithm, String> {
    use crate::algorithm::AlgorithmBuilder;
    use crate::ChunkId;
    use tacos_topology::{ByteSize, LinkId, NpuId};

    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty input")?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 7 || h[0] != "tacos-algo" || h[1] != "v1" {
        return Err(format!("bad header: '{header}'"));
    }
    let num = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|e| format!("bad {what} '{s}': {e}"))
    };
    let opt = |s: &str, what: &str| -> Result<Option<u64>, String> {
        if s == "-" {
            Ok(None)
        } else {
            num(s, what).map(Some)
        }
    };
    let num_npus = num(h[3], "num_npus")? as usize;
    let mut b = AlgorithmBuilder::new(
        h[2],
        num_npus,
        ByteSize::bytes(num(h[4], "chunk_size")?),
        ByteSize::bytes(num(h[5], "total_size")?),
    );
    let planned = opt(h[6], "planned_time")?;

    let mut deps: Vec<TransferId> = Vec::new();
    for (lineno, line) in lines {
        let mut f = [""; 9];
        let mut fields = 0;
        for field in line.split_whitespace() {
            if let Some(slot) = f.get_mut(fields) {
                *slot = field;
            }
            fields += 1;
        }
        if fields == 0 {
            continue;
        }
        if fields != 9 {
            return Err(format!(
                "line {}: expected 9 fields, got {fields}",
                lineno + 1
            ));
        }
        let chunk = ChunkId::new(num(f[0], "chunk")? as u32);
        let count = num(f[1], "count")? as u32;
        let src = NpuId::new(num(f[2], "src")? as u32);
        let dst = NpuId::new(num(f[3], "dst")? as u32);
        let kind = match f[4] {
            "C" => TransferKind::Copy,
            "R" => TransferKind::Reduce,
            other => return Err(format!("line {}: bad kind '{other}'", lineno + 1)),
        };
        let link = opt(f[5], "link")?.map(|l| LinkId::new(l as u32));
        let start = opt(f[6], "start")?.map(Time::from_ps);
        let duration = opt(f[7], "duration")?.map(Time::from_ps);
        deps.clear();
        if f[8] != "-" {
            for d in f[8].split(',') {
                deps.push(TransferId::new(num(d, "dep")? as u32));
            }
        }
        match (link, start, duration) {
            (Some(link), Some(start), Some(duration)) => {
                b.push_scheduled(chunk, src, dst, kind, link, start, duration, &deps);
            }
            (Some(link), None, None) => {
                b.push_on_link(chunk, count, src, dst, kind, link, &deps);
            }
            (None, None, None) => {
                if count == 1 {
                    b.push(chunk, src, dst, kind, &deps);
                } else {
                    b.push_counted(chunk, count, src, dst, kind, &deps);
                }
            }
            _ => {
                return Err(format!(
                    "line {}: partial schedule (link/start/duration must come together)",
                    lineno + 1
                ))
            }
        }
    }
    if let Some(planned) = planned {
        b.planned_time(Time::from_ps(planned));
    }
    Ok(b.build())
}

fn kind_name(kind: TransferKind) -> &'static str {
    match kind {
        TransferKind::Copy => "copy",
        TransferKind::Reduce => "reduce",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AlgorithmBuilder;
    use crate::ChunkId;
    use tacos_topology::{ByteSize, LinkId, NpuId, Time};

    fn algo() -> CollectiveAlgorithm {
        let mut b = AlgorithmBuilder::new("unit", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Reduce,
            LinkId::new(1),
            Time::from_ps(10),
            Time::from_ps(10),
            vec![first],
        );
        b.planned_time(Time::from_ps(20));
        b.build()
    }

    #[test]
    fn json_roundtrippable_shape() {
        let j = to_json(&algo());
        assert!(j.starts_with("{\"name\":\"unit\""));
        assert!(j.contains("\"planned_time_ps\":20"));
        assert!(j.contains("\"kind\":\"reduce\""));
        assert!(j.contains("\"deps\":[0]"));
        assert!(j.ends_with("]}"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn xml_structure() {
        let x = to_msccl_xml(&algo());
        assert!(x.starts_with("<algo name=\"unit\""));
        assert_eq!(x.matches("<gpu ").count(), 3);
        assert_eq!(x.matches("</gpu>").count(), 3);
        // GPU1 both receives (from 0) and sends (to 2).
        assert!(x.contains("send=\"2\""));
        assert!(x.contains("recv=\"0\""));
        // Reduce arrives as rrc.
        assert!(x.contains("type=\"rrc\""));
        assert!(x.ends_with("</algo>\n"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }

    #[test]
    fn compact_roundtrip_scheduled() {
        let a = algo();
        let text = to_compact(&a);
        let back = from_compact(&text).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn compact_roundtrip_dependency_driven() {
        let mut b = AlgorithmBuilder::new("dep algo", 4, ByteSize::kb(64), ByteSize::kb(256));
        let first = b.push(
            ChunkId::new(1),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        b.push_counted(
            ChunkId::new(2),
            8,
            NpuId::new(1),
            NpuId::new(3),
            TransferKind::Reduce,
            vec![first],
        );
        b.push_on_link(
            ChunkId::new(3),
            2,
            NpuId::new(2),
            NpuId::new(0),
            TransferKind::Copy,
            LinkId::new(5),
            vec![],
        );
        let a = b.build();
        let back = from_compact(&to_compact(&a)).unwrap();
        // Name spaces are flattened to underscores; everything else equal.
        assert_eq!(back.name(), "dep_algo");
        assert_eq!(back.len(), a.len());
        let (xd, yd) = (a.dependencies(), back.dependencies());
        for (x, y) in a.transfers().iter().zip(back.transfers()) {
            assert_eq!(x.chunk(), y.chunk());
            assert_eq!(x.count(), y.count());
            assert_eq!(x.src(), y.src());
            assert_eq!(x.dst(), y.dst());
            assert_eq!(x.kind(), y.kind());
            assert_eq!(x.link(), y.link());
        }
        assert_eq!(xd, yd);
    }

    #[test]
    fn compact_rejects_malformed() {
        assert!(from_compact("").is_err());
        assert!(from_compact("nope v1 x 2 1 1 -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 X - - - -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 C 0 5 - -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 C").is_err());
    }
}
