//! Maximal independent set over the cell conflict graph — Blelloch's
//! random-priority algorithm (paper ref \[32\]), the step DREAMPlace
//! offloads to GPU with a reported 40× speedup (§IV-B).
//!
//! Each round is two data-parallel phases, written here as Heteroflow GPU
//! kernels over CSR adjacency:
//! 1. **select** — an undecided cell enters the set if its priority beats
//!    every undecided neighbor's (ties by id);
//! 2. **commit** — winners become IN; their undecided neighbors become
//!    OUT.
//!
//! With random priorities the number of rounds is O(log n) w.h.p.

use hf_gpu::{KernelArgs, LaunchConfig};

/// Cell state encoding in the device `state` array.
pub const UNDECIDED: u32 = 0;
/// Selected into the independent set.
pub const IN_SET: u32 = 1;
/// Excluded (a neighbor is in the set).
pub const OUT: u32 = 2;
/// Tentatively selected this round (between the two phases).
pub const TENTATIVE: u32 = 3;

/// Both kernels' device arguments, held together without a copy: three
/// read-only arrays and the states, the one array written.
fn mis_args<'a>(
    args: &'a mut KernelArgs<'_, '_>,
) -> (&'a [u32], &'a [u32], &'a [u32], &'a mut [u32]) {
    const NEED: &str =
        "MIS kernels need four disjoint u32 buffers: offsets, neighbors, priorities, states";
    let mut s = args.split().expect(NEED);
    (
        s.read(0).expect(NEED),
        s.read(1).expect(NEED),
        s.read(2).expect(NEED),
        s.write(3).expect(NEED),
    )
}

/// Phase 1 kernel: mark local priority minima as TENTATIVE. Once no cell
/// is undecided it returns at once: every thread would skip its cell.
///
/// Device args: 0 = CSR offsets (u32, n+1), 1 = CSR neighbors (u32),
/// 2 = priorities (u32, n), 3 = states (u32, n).
pub fn select_kernel() -> impl Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync {
    |cfg, args| {
        let (offsets, neighbors, priorities, states) = mis_args(args);
        if !states.contains(&UNDECIDED) {
            return;
        }
        let n = states.len();
        for v in cfg.threads() {
            if v >= n || states[v] != UNDECIDED {
                continue;
            }
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            let mut wins = true;
            for &u in &neighbors[s..e] {
                let u = u as usize;
                // Only undecided neighbors compete.
                if states[u] == UNDECIDED || states[u] == TENTATIVE {
                    let beat = (priorities[v], v) < (priorities[u], u);
                    if !beat {
                        wins = false;
                        break;
                    }
                }
            }
            if wins {
                states[v] = TENTATIVE;
            }
        }
    }
}

/// Phase 2 kernel: TENTATIVE → IN_SET; undecided neighbors of the new
/// members → OUT. Same device args (priorities unused), one pass over the
/// TENTATIVE cells only: no two of them are adjacent (of two adjacent
/// undecided cells only the one with the lower `(priority, id)` passes
/// select), so promoting one never hides another from its own knock-out,
/// and members of earlier rounds knocked their neighbors out in theirs.
/// With no TENTATIVE cell it returns at once.
pub fn commit_kernel() -> impl Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync {
    |cfg, args| {
        let (offsets, neighbors, _, states) = mis_args(args);
        if !states.contains(&TENTATIVE) {
            return;
        }
        let n = states.len();
        for v in cfg.threads() {
            if v >= n || states[v] != TENTATIVE {
                continue;
            }
            states[v] = IN_SET;
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            for &u in &neighbors[s..e] {
                let u = u as usize;
                if states[u] == UNDECIDED {
                    states[u] = OUT;
                }
            }
        }
    }
}

/// The commit phase as defined, in two passes: every TENTATIVE cell becomes
/// IN_SET, then every undecided neighbor of any member becomes OUT. The
/// reference [`commit_kernel`] is tested against, round by round.
pub fn commit_two_pass(offsets: &[u32], neighbors: &[u32], states: &mut [u32]) {
    for s in states.iter_mut().filter(|s| **s == TENTATIVE) {
        *s = IN_SET;
    }
    for v in 0..states.len() {
        if states[v] != IN_SET {
            continue;
        }
        for &u in &neighbors[offsets[v] as usize..offsets[v + 1] as usize] {
            if states[u as usize] == UNDECIDED {
                states[u as usize] = OUT;
            }
        }
    }
}

/// CPU reference: runs select/commit rounds to a fixed point and returns
/// the final states. Identical semantics to the kernels.
pub fn mis_cpu(offsets: &[u32], neighbors: &[u32], priorities: &[u32]) -> Vec<u32> {
    let n = priorities.len();
    let mut states = vec![UNDECIDED; n];
    loop {
        let mut changed = false;
        // Select.
        let snapshot = states.clone();
        for v in 0..n {
            if snapshot[v] != UNDECIDED {
                continue;
            }
            let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
            let wins = neighbors[s..e].iter().all(|&u| {
                let u = u as usize;
                snapshot[u] != UNDECIDED || (priorities[v], v) < (priorities[u], u)
            });
            if wins {
                states[v] = TENTATIVE;
                changed = true;
            }
        }
        commit_two_pass(offsets, neighbors, &mut states);
        if !changed {
            break;
        }
        if states.iter().all(|&s| s != UNDECIDED) {
            break;
        }
    }
    states
}

/// Deterministic per-cell priorities: a seeded splitmix64 stream.
pub fn make_priorities(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_all_in() {
        let off = vec![0u32; 6];
        let st = mis_cpu(&off, &[], &make_priorities(5, 1));
        assert!(st.iter().all(|&s| s == IN_SET));
    }
}
