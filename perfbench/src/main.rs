//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric it measured as a table, and
//! ends with one JSON line holding the gated metrics: the end-to-end
//! ones that every workload reports (untraced), or every per-layer one
//! (traced). A traced run also writes its Chrome trace and per-layer
//! numbers under `out/` in this crate's directory. Exits non-zero when
//! any operation failed or any output did not verify.

use std::path::Path;
use std::process::ExitCode;

use portus_perfbench::{run, Metrics, Opts, Outcome, Workload, GATED};

fn parse(args: &[String]) -> Result<(Workload, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_metrics(m: &Metrics) -> String {
    let fields: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    json_number(x.value),
                    x.unit
                )
            })
            .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_table(title: &str, m: &Metrics) {
    println!("# {title}");
    for x in &m.0 {
        println!("#   {:<34} {:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn write_trace(workload: Workload, opts: Opts, out: &Outcome) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", workload.name(), opts.seed);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        if let Some(trace) = &out.chrome_trace {
            std::fs::write(dir.join(format!("{stem}.trace.json")), trace)?;
        }
        std::fs::write(
            dir.join(format!("{stem}.layers.json")),
            json_metrics(&out.layers),
        )
    });
    match written {
        Ok(()) => println!("# wrote {}/{stem}.{{trace,layers}}.json", dir.display()),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = run(workload, opts);
    println!(
        "# {} seed={} trace={} attempted={} failed={}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace),
        out.attempted,
        out.failed
    );
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    let gated = if opts.trace {
        print_table("per-layer (traced run)", &out.layers);
        write_trace(workload, opts, &out);
        out.layers.clone()
    } else {
        print_table("end-to-end (untraced run)", &out.e2e);
        let mut g = Metrics::default();
        for &name in GATED {
            let m = out.e2e.0.iter().find(|m| m.name == name);
            let m = m.expect("every workload reports every gated metric");
            g.put(name, m.value, m.unit);
        }
        g
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json_metrics(&gated)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
