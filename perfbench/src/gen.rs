//! The seeded request trace of the `serve-mixed` workload.
//!
//! A fixed key set of small and medium problems is drawn from with a
//! Zipf-like skew over a fixed popularity order; the seed shuffles the
//! order of the requests. Keeping the mix fixed keeps the work per pass
//! comparable across seeds. The daemon only ever sees the generated
//! request lines.

/// Trace requests each of the two connections sends per pass, besides
/// its burst requests.
pub const REQUESTS_PER_CONN: usize = 400;

/// The last requests of each connection's pass, in an order no seed
/// changes. The warm cache's resident set at the checkpoint, and so the
/// snapshot every restart reloads, is then the same for every seed; with
/// a seeded tail, the median restart took 0.05 s for one seed and 0.10 s
/// for another on a 2-core x86 VM.
pub const FIXED_TAIL_PER_CONN: usize = REQUESTS_PER_CONN / 2;

/// Barrier-synchronised points per pass at which both connections send
/// the same never-seen key, so single-flight deduplication has work.
pub const BURSTS: usize = 4;

/// Zipf exponent of the key popularity draw.
const ZIPF_S: f64 = 1.0;

/// Share of requests that ask for the schedule in the response.
const EXPORT_SHARE: f64 = 0.25;

/// Seed of the fixed shuffle that assigns popularity ranks to keys.
const POPULARITY_SEED: u64 = 0x7ac0;

/// splitmix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One distinct request key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// Topology spec in the scenario vocabulary.
    pub topology: &'static str,
    /// Collective pattern name.
    pub collective: &'static str,
    /// Collective size label.
    pub size: &'static str,
    /// `tacos`, `ring` or `ideal`.
    pub mechanism: &'static str,
    /// Chunks per NPU.
    pub chunks: u32,
}

/// The fixed key set. Every key is servable (no `ring` × `all-to-all`)
/// and none synthesizes in more than about 50 ms on a 2-core x86 box;
/// all-to-all is kept to the topologies and chunk counts where that
/// holds.
pub fn key_set() -> Vec<Key> {
    const TOPOLOGIES: [&str; 8] = [
        "mesh:4x4",
        "mesh:8x8",
        "ring:16",
        "switch:16",
        "switch:32",
        "hypercube:2x2x2",
        "hypercube:4x4x2",
        "hypercube:4x4x4",
    ];
    const COLLECTIVES: [&str; 4] = ["all-gather", "all-reduce", "reduce-scatter", "all-to-all"];
    const SIZES: [&str; 3] = ["1MB", "16MB", "64MB"];
    const MECHANISMS: [(&str, u32); 4] = [("tacos", 1), ("tacos", 4), ("ring", 1), ("ideal", 1)];
    // All-to-all synthesis grows fast with NPU count and chunking.
    const A2A_C1_OK: [&str; 6] = [
        "mesh:4x4",
        "ring:16",
        "switch:16",
        "switch:32",
        "hypercube:2x2x2",
        "hypercube:4x4x2",
    ];
    const A2A_C4_OK: [&str; 4] = ["mesh:4x4", "ring:16", "switch:16", "hypercube:2x2x2"];

    let mut keys = Vec::new();
    for topology in TOPOLOGIES {
        for collective in COLLECTIVES {
            for (mechanism, chunks) in MECHANISMS {
                if collective == "all-to-all" {
                    let ok = match (mechanism, chunks) {
                        ("ring", _) => false,
                        ("tacos", 1) => A2A_C1_OK.contains(&topology),
                        ("tacos", _) => A2A_C4_OK.contains(&topology),
                        _ => true,
                    };
                    if !ok {
                        continue;
                    }
                }
                let size = SIZES[keys.len() % SIZES.len()];
                keys.push(Key {
                    topology,
                    collective,
                    size,
                    mechanism,
                    chunks,
                });
            }
        }
    }
    keys
}

/// One request of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Index into [`key_set`].
    pub key: usize,
    /// Whether the response embeds the schedule.
    pub include_algorithm: bool,
    /// The exact line sent to the daemon.
    pub line: String,
}

/// One step of a connection's script. Both connections' scripts have
/// their `Burst` steps at the same positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Send one trace request.
    Request(TraceRequest),
    /// Meet the other connection, then both send burst `b`'s request.
    Burst(usize),
    /// Meet the other connection; both fixed tails start here.
    Meet,
}

/// A generated trace: the script of each of the two connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeTrace {
    /// The seed the trace was drawn from.
    pub seed: u64,
    /// Distinct keys in the key set.
    pub distinct_keys: usize,
    /// Scripts of connection 0 and connection 1, in send order.
    pub conns: [Vec<Step>; 2],
}

impl ServeTrace {
    /// Every trace request of both connections.
    pub fn requests(&self) -> impl Iterator<Item = &TraceRequest> {
        self.conns.iter().flatten().filter_map(|step| match step {
            Step::Request(r) => Some(r),
            _ => None,
        })
    }
}

/// Draws the trace for `seed`.
///
/// Each key is requested its exact Zipf share of the pass (largest
/// remainder rounding), a quarter of its requests ask for the schedule,
/// and the seed shuffles the order, so every seed asks for the same
/// work.
pub fn generate(seed: u64) -> ServeTrace {
    let keys = key_set();
    // Fixed popularity order: rank r is key rank_to_key[r].
    let mut order = SplitMix::new(POPULARITY_SEED);
    let mut rank_to_key: Vec<usize> = (0..keys.len()).collect();
    shuffle(&mut rank_to_key, &mut order);
    let total = 2 * REQUESTS_PER_CONN;
    let weights: Vec<f64> = (0..keys.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = total - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }

    let mut pool: Vec<(usize, bool)> = Vec::with_capacity(total);
    for (rank, &count) in counts.iter().enumerate() {
        let key = rank_to_key[rank];
        let exports = if keys[key].mechanism == "ideal" {
            0
        } else {
            (count as f64 * EXPORT_SHARE).round() as usize
        };
        pool.extend((0..count).map(|i| (key, i < exports)));
    }
    shuffle(&mut pool, &mut order);
    let head = total - 2 * FIXED_TAIL_PER_CONN;
    shuffle(&mut pool[..head], &mut SplitMix::new(seed));

    let mut id = 0u64;
    let mut request = |key: usize, include_algorithm: bool| {
        id += 1;
        Step::Request(TraceRequest {
            key,
            include_algorithm,
            line: request_line(id, &keys[key], include_algorithm, None),
        })
    };
    let mut conns: [Vec<Step>; 2] = [Vec::new(), Vec::new()];
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut burst = 0;
        for (i, &(key, include)) in pool.iter().skip(c).step_by(2).enumerate() {
            if burst < BURSTS && i == (burst + 1) * REQUESTS_PER_CONN / (BURSTS + 1) {
                conn.push(Step::Burst(burst));
                burst += 1;
            }
            if i == REQUESTS_PER_CONN - FIXED_TAIL_PER_CONN {
                conn.push(Step::Meet);
            }
            conn.push(request(key, include));
        }
    }
    ServeTrace {
        seed,
        distinct_keys: keys.len(),
        conns,
    }
}

/// The key both connections send at burst `burst` of pass `pass`: a
/// mid-sized synthesis (about 15 ms) under a seed no earlier request
/// used, so it is always a miss and the second arrival joins the
/// first one's flight.
pub fn burst_line(pass: u32, burst: usize) -> String {
    let key = Key {
        topology: "mesh:8x8",
        collective: "all-reduce",
        size: "64MB",
        mechanism: "tacos",
        chunks: 4,
    };
    let seed = 1_000_000 + u64::from(pass) * BURSTS as u64 + burst as u64;
    request_line(0, &key, false, Some(seed))
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn request_line(id: u64, key: &Key, include_algorithm: bool, seed: Option<u64>) -> String {
    let mut line = format!(
        r#"{{"id":{id},"topology":"{}","collective":"{}","size":"{}","mechanism":"{}","chunks":{}"#,
        key.topology, key.collective, key.size, key.mechanism, key.chunks
    );
    if let Some(seed) = seed {
        line.push_str(&format!(r#","seed":{seed}"#));
    }
    if include_algorithm {
        line.push_str(r#","include_algorithm":true"#);
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(trace: &ServeTrace) -> String {
        trace
            .requests()
            .map(|r| r.line.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn counts(trace: &ServeTrace) -> Vec<(usize, usize)> {
        let mut counts = vec![(0, 0); key_set().len()];
        for r in trace.requests() {
            counts[r.key].0 += 1;
            counts[r.key].1 += usize::from(r.include_algorithm);
        }
        counts
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        assert_eq!(bytes(&generate(7)), bytes(&generate(7)));
        assert_eq!(generate(7), generate(7));
        assert_ne!(bytes(&generate(7)), bytes(&generate(8)));
        assert_eq!(burst_line(3, 1), burst_line(3, 1));
        assert_ne!(burst_line(3, 1), burst_line(3, 2));
    }

    #[test]
    fn seeds_reorder_a_fixed_skewed_mix() {
        let keys = key_set();
        assert!(!keys
            .iter()
            .any(|k| k.mechanism == "ring" && k.collective == "all-to-all"));
        let trace = generate(1);
        // Every seed requests each key equally often, exports included.
        assert_eq!(counts(&trace), counts(&generate(2)));
        assert_eq!(trace.requests().count(), 2 * REQUESTS_PER_CONN);
        for r in trace.requests() {
            assert!(tacos_serve::Request::parse(&r.line).is_ok(), "{}", r.line);
        }
        let mut per_key: Vec<usize> = counts(&trace).iter().map(|c| c.0).collect();
        per_key.sort_unstable();
        // The hottest key is requested far more often than the median one.
        assert!(per_key[keys.len() - 1] > 8 * per_key[keys.len() / 2]);
        let exports: usize = counts(&trace).iter().map(|c| c.1).sum();
        let n = trace.requests().count();
        assert!(exports > n / 8 && exports < n / 3);
        assert!(tacos_serve::Request::parse(&burst_line(0, 0)).is_ok());
        // Both scripts meet at the same steps.
        let skeleton = |c: usize| -> Vec<usize> {
            trace.conns[c]
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s, Step::Request(_)))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(skeleton(0), skeleton(1));
        assert_eq!(skeleton(0).len(), BURSTS + 1);
        // Every seed ends each connection's pass the same way.
        let tail = |t: &ServeTrace, c: usize| {
            t.conns[c][t.conns[c].len() - FIXED_TAIL_PER_CONN..].to_vec()
        };
        for c in 0..2 {
            assert_eq!(tail(&trace, c), tail(&generate(2), c));
        }
    }
}
