//! Fan a cold batch across worker threads.
//!
//! `Workbench::run_batch` answers a batch sequentially inside one
//! session — right for a warm session whose memoized state makes each
//! answer cheap, but a cold session pays every analysis from scratch
//! back to back. Here, independent queries of one batch spread over a
//! small thread pool: worker 0 drives the *shared* (cached) workbench
//! so it still ends the call fully warmed, while the other workers
//! answer their share on ephemeral clones of the spec. Correctness
//! rides on the query plane's proven property that batched and
//! one-shot answers are identical — every query is answered against
//! the same immutable [`SystemSpec`], only the memoization differs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rtft_core::diag;
use rtft_core::error::AnalysisError;
use rtft_core::query::{Query, Response, SystemSpec};
use rtft_part::workbench::Workbench;

/// Answer `queries` in caller order, fanning across up to `threads`
/// workers. `shared` is the cached session for `spec`; it is locked by
/// worker 0 for the whole call, so concurrent requests for the same
/// spec serialize exactly as they would on the warm path.
///
/// # Errors
/// The first failing query's [`AnalysisError`], in caller order.
pub fn run_batch_fanned(
    shared: &Arc<Mutex<Workbench>>,
    spec: &SystemSpec,
    queries: &[Query],
    threads: usize,
) -> Result<Vec<Response>, AnalysisError> {
    let threads = threads.clamp(1, queries.len().max(1));
    if threads == 1 || queries.len() < 2 {
        // A poisoned session is not trusted (see below).
        return match shared.lock() {
            Ok(mut bench) => bench.run_batch(queries),
            Err(_) => Workbench::new(spec.clone()).run_batch(queries),
        };
    }

    // Same cheap-first ordering run_batch uses, so early feasibility
    // answers warm the iterative analyses that later queries extend.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| (diag::execution_phase(&queries[i]), i));

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Response, AnalysisError>>>> =
        queries.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let order = &order;
            let cursor = &cursor;
            let slots = &slots;
            scope.spawn(move || {
                // Worker 0 owns the cached session; the rest warm
                // throwaway ones. Each worker pulls from the shared
                // cursor until the batch is drained, so a slow query
                // never idles the other workers.
                // A cached session a panicking handler left poisoned
                // may hold half-updated memo state: worker 0 answers on
                // a throwaway one instead, and the cache evicts it.
                let mut own;
                let mut guard;
                let locked = if worker == 0 {
                    shared.lock().ok()
                } else {
                    None
                };
                let bench: &mut Workbench = match locked {
                    Some(locked) => {
                        guard = locked;
                        &mut guard
                    }
                    None => {
                        own = Workbench::new(spec.clone());
                        &mut own
                    }
                };
                loop {
                    let next = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&idx) = order.get(next) else { break };
                    let answer = bench.run(&queries[idx]);
                    *slots[idx].lock().expect("result slot poisoned") = Some(answer);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(queries.len());
    for slot in slots {
        out.push(
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every query slot is filled exactly once"),
        );
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::query::parse_batch;

    const BATCH: &str = "\
system fan-test
task hi 1 40 40 8
task mid 2 60 60 12
task lo 3 120 120 20
query feasibility
query wcrt
query thresholds
query equitable
query system-allowance
query overrun hi
query overrun lo
query sensitivity
";

    #[test]
    fn fanned_answers_match_sequential_batch() {
        let (spec, queries) = parse_batch(BATCH).expect("batch parses");
        let sequential = Workbench::new(spec.clone())
            .run_batch(&queries)
            .expect("sequential batch runs");
        for threads in [1, 2, 4, 16] {
            let shared = Arc::new(Mutex::new(Workbench::new(spec.clone())));
            let fanned =
                run_batch_fanned(&shared, &spec, &queries, threads).expect("fanned batch runs");
            assert_eq!(fanned, sequential, "threads={threads}");
        }
    }

    #[test]
    fn shared_session_is_warm_after_fanning() {
        let (spec, queries) = parse_batch(BATCH).expect("batch parses");
        let shared = Arc::new(Mutex::new(Workbench::new(spec.clone())));
        run_batch_fanned(&shared, &spec, &queries, 4).expect("fanned batch runs");
        // The cached session must have answered its share itself — a
        // follow-up on it still matches the one-shot answers.
        let again = shared
            .lock()
            .unwrap()
            .run_batch(&queries)
            .expect("warm rerun");
        let sequential = Workbench::new(spec).run_batch(&queries).unwrap();
        assert_eq!(again, sequential);
    }
}
