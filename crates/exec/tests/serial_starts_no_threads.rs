//! `threads = 1` runs inline and never starts the helper pool. Alone in
//! its own test binary, so no other test can have started it first.

use bi_exec::{par_map, par_ranges, try_par_ranges, ExecConfig};

/// Threads of this process, from `/proc/self/task` (Linux only).
#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[cfg(target_os = "linux")]
#[test]
fn one_thread_configs_never_start_the_pool() {
    let before = threads();
    assert!(before > 0);
    let items: Vec<u64> = (0..50_000).collect();
    for cfg in [
        ExecConfig::default(),
        ExecConfig::serial(),
        ExecConfig::columnar(),
        ExecConfig::with_threads(1).with_pinned_threads(true),
    ] {
        assert_eq!(par_map(&cfg, &items, |x| x + 1).len(), items.len());
        assert_eq!(par_ranges(&cfg, 50_000, 64, |s, e| e - s).len(), 782);
        let r: Result<Vec<usize>, ()> = try_par_ranges(&cfg, 50_000, 64, |s, _| Ok(s));
        assert_eq!(r.map(|v| v.len()), Ok(782));
    }
    assert_eq!(threads(), before);
}
