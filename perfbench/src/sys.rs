//! Process and host facts read from the kernel: CPU time, peak resident
//! memory and the run header (core count, pool width, caches, commit).

use std::collections::BTreeMap;
use std::path::Path;

use wb_bench::json::Json;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux target).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (exited threads
/// included), at 10 ms resolution. 0 where `/proc` is unavailable.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i - 3)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / TICKS_PER_S
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r)).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// CPU cache sizes of cpu0, e.g. `{"L1d": "48K", "L2": "2048K", ...}`.
fn caches() -> Json {
    let mut out = BTreeMap::new();
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let get = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (get("level"), get("type"), get("size")) else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.insert(
            format!("L{}{suffix}", level.trim()),
            Json::Str(size.trim().into()),
        );
    }
    Json::Obj(out)
}

/// The run header: everything that must match before two results are
/// compared.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(BTreeMap::from([
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("par_width".into(), Json::Num(wb_par::num_threads() as f64)),
        ("commit".into(), Json::Str(commit())),
        ("caches".into(), caches()),
    ]))
}
