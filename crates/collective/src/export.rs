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

use tacos_topology::{ByteSize, LinkId, NpuId, Time};

use crate::algorithm::{AlgorithmBuilder, CollectiveAlgorithm, Transfer, TransferId, TransferKind};
use crate::ChunkId;

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
/// Every value is checked against the field it fills, so a parseable
/// but invalid line (an NPU id out of range, `src == dst`, a dependency
/// that is not an earlier transfer, a zero count, a value too wide for
/// its field or equal to an "unscheduled" sentinel) is an error rather
/// than a panic or a silent truncation.
///
/// # Errors
/// Returns a human-readable description of the first malformed line,
/// with its line number.
pub fn from_compact(text: &str) -> Result<CollectiveAlgorithm, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty input")?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 7 || h[0] != "tacos-algo" || h[1] != "v1" {
        return Err(format!("bad header: '{header}'"));
    }
    // NPU ids are 32-bit.
    let num_npus = parse_below(h[3], "num_npus", (1 << 32) + 1)? as usize;
    let mut b = AlgorithmBuilder::new(
        h[2],
        num_npus,
        ByteSize::bytes(parse_u64(h[4], "chunk_size")?),
        ByteSize::bytes(parse_u64(h[5], "total_size")?),
    );
    let planned = (h[6] != "-")
        .then(|| parse_u64(h[6], "planned_time"))
        .transpose()?;

    let mut deps: Vec<TransferId> = Vec::new();
    for (lineno, line) in lines {
        push_compact_line(&mut b, num_npus, line, &mut deps)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if let Some(planned) = planned {
        b.planned_time(Time::from_ps(planned));
    }
    Ok(b.build())
}

/// Parses one transfer line of the compact format onto `b`; blank lines
/// are skipped.
fn push_compact_line(
    b: &mut AlgorithmBuilder,
    num_npus: usize,
    line: &str,
    deps: &mut Vec<TransferId>,
) -> Result<(), String> {
    const U32_LIMIT: u64 = 1 << 32;
    let mut f = [""; 9];
    let mut fields = 0;
    for field in line.split_whitespace() {
        if let Some(slot) = f.get_mut(fields) {
            *slot = field;
        }
        fields += 1;
    }
    if fields == 0 {
        return Ok(());
    }
    if fields != 9 {
        return Err(format!("expected 9 fields, got {fields}"));
    }
    let chunk = ChunkId::new(parse_below(f[0], "chunk", U32_LIMIT)? as u32);
    let count = parse_below(f[1], "count", U32_LIMIT)? as u32;
    if count == 0 {
        return Err("count 0: a transfer carries at least one chunk".into());
    }
    let src = NpuId::new(parse_below(f[2], "src", num_npus as u64)? as u32);
    let dst = NpuId::new(parse_below(f[3], "dst", num_npus as u64)? as u32);
    if src == dst {
        return Err(format!("src and dst are both NPU {src}"));
    }
    let kind = match f[4] {
        "C" => TransferKind::Copy,
        "R" => TransferKind::Reduce,
        other => return Err(format!("bad kind '{other}'")),
    };
    // The all-ones link and time values are the "unscheduled" sentinels.
    let link = parse_opt(f[5], "link", u64::from(u32::MAX))?.map(|l| LinkId::new(l as u32));
    let start = parse_opt(f[6], "start", u64::MAX)?.map(Time::from_ps);
    let duration = parse_opt(f[7], "duration", u64::MAX)?.map(Time::from_ps);
    deps.clear();
    if f[8] != "-" {
        // A dependency must name an earlier transfer.
        let id = b.len() as u64;
        for d in f[8].split(',') {
            deps.push(TransferId::new(parse_below(d, "dep", id)? as u32));
        }
    }
    match (link, start, duration) {
        (Some(link), Some(start), Some(duration)) => {
            if count != 1 {
                return Err(format!("count {count} on a scheduled transfer (must be 1)"));
            }
            b.push_scheduled(chunk, src, dst, kind, link, start, duration, &*deps);
        }
        (Some(link), None, None) => {
            b.push_on_link(chunk, count, src, dst, kind, link, &*deps);
        }
        (None, None, None) => {
            if count == 1 {
                b.push(chunk, src, dst, kind, &*deps);
            } else {
                b.push_counted(chunk, count, src, dst, kind, &*deps);
            }
        }
        _ => return Err("partial schedule (link/start/duration must come together)".into()),
    }
    Ok(())
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad {what} '{s}': {e}"))
}

/// Parses `s` and checks it is below `limit`.
fn parse_below(s: &str, what: &str, limit: u64) -> Result<u64, String> {
    let v = parse_u64(s, what)?;
    if v < limit {
        Ok(v)
    } else {
        Err(format!("{what} {v} out of range (must be below {limit})"))
    }
}

/// [`parse_below`], or `None` for `-`.
fn parse_opt(s: &str, what: &str, limit: u64) -> Result<Option<u64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        parse_below(s, what, limit).map(Some)
    }
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

        // Parseable but invalid lines: each names its line and field.
        let header = "tacos-algo v1 a 3 1 1 -";
        let err = |body: &str| from_compact(&format!("{header}\n{body}")).unwrap_err();
        let valid = "0 1 0 1 C - - - -";
        assert!(from_compact(&format!("{header}\n{valid}")).is_ok());
        for (line, needle) in [
            ("0 1 3 1 C - - - -", "src 3 out of range"),
            ("0 1 0 7 C - - - -", "dst 7 out of range"),
            ("0 1 1 1 C - - - -", "both NPU"),
            ("0 0 0 1 C - - - -", "count 0"),
            (
                "4294967296 1 0 1 C - - - -",
                "chunk 4294967296 out of range",
            ),
            (
                "0 4294967296 0 1 C - - - -",
                "count 4294967296 out of range",
            ),
            ("0 1 0 1 C 4294967295 - - -", "link 4294967295 out of range"),
            ("0 1 0 1 C 0 18446744073709551615 5 -", "start"),
            ("0 1 0 1 C 0 5 18446744073709551615 -", "duration"),
            ("0 1 0 1 C - - - 0", "dep 0 out of range"),
            ("0 2 0 1 C 0 5 5 -", "scheduled transfer"),
        ] {
            let e = err(line);
            assert!(e.starts_with("line 2: "), "{line}: {e}");
            assert!(e.contains(needle), "{line}: {e}");
        }
        // A dependency must be strictly earlier, not the line itself.
        let e = err(&format!("{valid}\n0 1 1 2 C - - - 1"));
        assert!(e.starts_with("line 3: ") && e.contains("dep 1"), "{e}");
        assert!(from_compact(&format!("{header}\n{valid}\n0 1 1 2 C - - - 0")).is_ok());
        assert!(from_compact("tacos-algo v1 a 4294967297 1 1 -").is_err());
    }
}
