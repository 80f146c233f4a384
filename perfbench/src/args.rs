//! Command-line arguments of the benchmark.

/// The three workloads the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One TCP client, one query at a time, over a 100k-point index.
    TcpSerial,
    /// One thread executing 256-plan batches in the engine over 1M points.
    ScanBatch,
    /// Read bursts through a versioned service beside an open-loop writer.
    RwBurst,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::TcpSerial, Workload::ScanBatch, Workload::RwBurst];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpSerial => "tcp-serial",
            Workload::ScanBatch => "scan-batch",
            Workload::RwBurst => "rw-burst",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Shrinks every input to a few thousand points: for the benchmark's own
    /// tests, never for measurement.
    pub tiny: bool,
    /// Corrupts one reference answer before the answer check, to show that
    /// the check fails the run (used by the benchmark's tests).
    pub corrupt_reference: bool,
}

/// Usage line printed on argument errors.
pub const USAGE: &str = "usage: wazi-perfbench --workload <tcp-serial|scan-batch|rw-burst> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-reference]";

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut corrupt_reference = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value()?)?),
                "--seed" => seed = Some(parse_num::<u64>("--seed", &value()?)?),
                "--seconds" => seconds = Some(parse_num::<f64>("--seconds", &value()?)?),
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
                    })
                }
                "--tiny" => tiny = true,
                "--corrupt-reference" => corrupt_reference = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let seconds = seconds.ok_or("missing `--seconds`")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("`--seconds` must be positive, not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("missing `--workload`")?,
            seed: seed.ok_or("missing `--seed`")?,
            seconds,
            trace: trace.unwrap_or(false),
            tiny,
            corrupt_reference,
        })
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a number, not `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload rw-burst --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::RwBurst);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace && !args.tiny && !args.corrupt_reference);
    }

    #[test]
    fn refuses_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload scan-batch --seconds 1").is_err());
        assert!(parse("--workload scan-batch --seed 1 --seconds 0").is_err());
        assert!(parse("--workload scan-batch --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload scan-batch --seed 1 --seconds 1 --bogus").is_err());
        assert!(parse("--workload scan-batch --seed").is_err());
    }
}
