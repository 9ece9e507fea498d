//! `ccbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints one line per metric and, last, the result as one JSON object.
//! Exits 1 when a correctness check failed (after printing everything) and
//! 2 on a usage error.
//!
//! On Linux the process first re-executes itself with address-space
//! randomisation off. With it on, the heap and stack land at different
//! offsets in every run, which moves `VmHWM` by a few percent and
//! allocation timings by more between identical runs.

use std::path::PathBuf;
use std::process::ExitCode;

use ccbench::{Size, DEFAULT_SEED};

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err(bad(&"expected 0 to 600"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

/// Re-execute this program with `ADDR_NO_RANDOMIZE` set. Returns when
/// randomisation is already off or cannot be turned off, and the run then
/// proceeds as it is.
#[cfg(target_os = "linux")]
fn exec_without_aslr() {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;

    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: `personality` takes a plain integer and touches no memory of
    // ours; QUERY only reads the current persona.
    let current = unsafe { personality(QUERY) };
    let Ok(current) = c_ulong::try_from(current) else {
        return;
    };
    if current & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above; this sets the persona, which takes effect at exec.
    if unsafe { personality(current | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("ccbench: running with address randomisation, re-exec failed: {err}");
}

fn main() -> ExitCode {
    #[cfg(target_os = "linux")]
    exec_without_aslr();
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ccbench: {e}");
            eprintln!(
                "usage: ccbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match ccbench::run(&cli.workload, cli.seed, cli.seconds, cli.trace, Size::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ccbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &outcome.spans {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("spans");
        let path = dir.join(format!("trace-{}.json", cli.workload));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("ccbench: cannot write {}: {e}", path.display());
        }
    }
    print!("{}", outcome.lines(&cli.workload));
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
