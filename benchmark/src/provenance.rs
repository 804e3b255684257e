//! What produced a file: commit, toolchain, machine — and the scrubbing of
//! the ambient knobs that could change what is measured.

use crate::json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Environment variables library crates read at run time
/// (`simnet::SchedulerKind::from_env`, `kademlia::RecordStore::new`).
/// The benchmark measures the defaults, whatever the caller's shell says.
pub const SCRUBBED_ENV: [&str; 2] = ["IPFS_REPRO_SCHED", "IPFS_REPRO_EXPIRY"];

/// Removes [`SCRUBBED_ENV`] from this process. Call first thing in
/// `main`, before any thread exists.
pub fn scrub_env() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

/// A command for `program` that will not see [`SCRUBBED_ENV`].
pub fn scrubbed_command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// First line a tool prints, or "unknown" when it cannot be run.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit, toolchain and core count as a JSON object.
pub fn json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"benchmark_version\": {}}}",
        json::quote(&tool_line("git", &["rev-parse", "HEAD"])),
        json::quote(&tool_line("rustc", &["--version"])),
        json::quote(env!("CARGO_PKG_VERSION")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbed_command_drops_the_knobs_and_keeps_the_rest() {
        let cmd = scrubbed_command(Path::new("/bin/true"));
        let mut removed: Vec<_> = cmd
            .get_envs()
            .filter(|(_, value)| value.is_none())
            .map(|(key, _)| key.to_string_lossy().into_owned())
            .collect();
        removed.sort();
        assert_eq!(removed, ["IPFS_REPRO_EXPIRY", "IPFS_REPRO_SCHED"]);
        assert!(cmd.get_envs().all(|(_, value)| value.is_none()), "nothing is added");
    }

    #[test]
    fn provenance_is_a_json_object_with_the_core_count() {
        let doc = json::Json::parse(&json()).unwrap();
        assert!(doc.get("nproc").and_then(json::Json::as_f64).unwrap() >= 1.0);
        assert!(doc.get("rustc").and_then(json::Json::as_str).is_some());
        assert!(doc.get("git_commit").and_then(json::Json::as_str).is_some());
    }
}
