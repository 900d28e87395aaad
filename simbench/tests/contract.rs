//! The benchmark's own tests: names agree with `BENCHMARK.json`, the
//! correctness gate counts a perturbed digest, and a tiny run of every
//! workload completes in both modes.

use dcmaint_simbench::gate::{Gate, Outputs};
use dcmaint_simbench::run::{run, Args};
use dcmaint_simbench::workload::{Size, WORKLOADS};
use dcmaint_simbench::{per_layer_names, END_TO_END};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` values inside the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("a quoted name") + 1..];
            rest[..rest.find('"').expect("the name closes")].to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_match_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    assert_eq!(names_under(&json, "end_to_end"), end_to_end);
    assert_eq!(names_under(&json, "per_layer"), per_layer_names());
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"why\": \"{}\"", w.why)),
            "{}: its why differs from BENCHMARK.json",
            w.name
        );
    }
    let all: Vec<String> = workloads
        .into_iter()
        .chain(end_to_end)
        .chain(per_layer_names())
        .collect();
    for name in &all {
        assert!(well_formed(name), "{name:?} is not a well-formed name");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

fn outputs() -> Outputs {
    Outputs {
        availability_ppb: 999_000_000,
        tickets_fixed: 10,
        tickets_spurious: 1,
        tickets_total: 12,
        incidents: 9,
        cascade_incidents: 2,
        events: 1234,
        window_p50_us: 600_000_000,
        twin_decisions: 0,
        twin_forks: 0,
    }
}

#[test]
fn perturbed_digest_counts_as_failure() {
    let good = outputs();
    let mut perturbed = good;
    perturbed.events += 1;
    assert_ne!(good.digest(), perturbed.digest());

    // Against a recorded reference.
    let reference = format!("e1-l3 42 cell0 {:016x}\n", good.digest());
    let mut gate = Gate::new("e1-l3", 42, Some(&reference));
    assert!(gate.check("cell0", good.digest(), 1));
    assert!(!gate.check("cell0", perturbed.digest(), 1));
    assert_eq!((gate.attempted, gate.failed), (2, 1));
    assert_eq!(gate.fail_ratio(), 0.5);

    // Without a reference, against the same key's earlier run.
    let mut gate = Gate::new("e1-l3", 7, None);
    assert!(gate.check("cell0", good.digest(), 1));
    assert!(!gate.check("cell0", perturbed.digest(), 1));
    assert_eq!(gate.fail_ratio(), 0.5);

    // A key the reference does not know fails too.
    let mut gate = Gate::new("e1-l3", 42, Some(&reference));
    assert!(!gate.check("cell1", good.digest(), 1));
    assert_eq!(gate.failed, 1);
}

#[test]
fn tiny_run_of_every_workload_completes() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(&Args {
                workload: w,
                seed: 7,
                seconds: 0.01,
                trace,
                size: Size::Tiny,
            });
            assert!(out.attempted > 0, "{}: nothing attempted", w.name);
            assert_eq!(out.failed, 0, "{} trace={trace}: {:?}", w.name, out.log);
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            let want: Vec<String> = if trace {
                per_layer_names()
            } else {
                END_TO_END.iter().map(|s| s.to_string()).collect()
            };
            assert_eq!(names, want, "{} trace={trace}", w.name);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    w.name,
                    out.metrics
                );
            }
        }
    }
}
