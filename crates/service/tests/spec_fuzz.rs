//! `JobSpec::from_text` under mutation, in the style of the checkpoint
//! decoders' fuzzer (`tests/checkpoint_codec.rs`): seeded [`SimRng`]
//! mutations of valid spec texts — swapped tokens, huge and negative
//! numbers, dropped and duplicated lines, stray bytes — go through the
//! parser. A job spec is untrusted input, so every text must come back `Ok`
//! or `Err`, never as a panic, and every `Ok` must round-trip through
//! `to_text` unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use smappic_service::{FaultProfileSpec, JobFaults, JobSpec, StepperSpec, TopoSpec, WorkloadSpec};
use smappic_sim::SimRng;

const INPUTS: usize = if cfg!(debug_assertions) { 1_000 } else { 10_000 };

/// Valid spec texts covering every workload, topology and fault line, and
/// the optional tenancy trailer.
fn seeds() -> Vec<String> {
    let mut sort = JobSpec::small("sort", WorkloadSpec::Sort { keys: 256, threads: 8 });
    sort.fpgas = 4;
    sort.nodes = 4;
    let mut rack = JobSpec::small("rack", WorkloadSpec::Sort { keys: 1024, threads: 16 });
    rack.fpgas = 8;
    rack.topology = TopoSpec::Ethernet { group_size: 4 };
    rack.faults = Some(JobFaults {
        profile: FaultProfileSpec::Blackhole { at: 9000 },
        seed: 42,
        links_only: true,
    });
    let mut amo = JobSpec::small("amo", WorkloadSpec::AmoHeavy { ops: 40, seed: 0xBEEF });
    amo.stepper = StepperSpec::Reference;
    amo.faults = Some(JobFaults { profile: FaultProfileSpec::Quiet, seed: 1, links_only: false });
    let mut tenant = JobSpec::small("t", WorkloadSpec::Poison { after: 700 });
    tenant.topology = TopoSpec::Hybrid { group_size: 2 };
    tenant.faults =
        Some(JobFaults { profile: FaultProfileSpec::Light, seed: 7, links_only: false });
    tenant.tenant = "acme".into();
    tenant.priority = 6;
    tenant.deadline_cycles = Some(750_000);
    [
        JobSpec::small("bursty", WorkloadSpec::Bursty { ops: 9, seed: 3 }),
        JobSpec::small("small-sort", WorkloadSpec::Sort { keys: 64, threads: 4 }),
        sort,
        rack,
        amo,
        tenant,
    ]
    .iter()
    .map(JobSpec::to_text)
    .collect()
}

/// Numbers a mutation swaps in: field boundaries, values past every
/// bound, values that overflow a product or the parser, and negatives.
const ODD_NUMBERS: &[&str] = &[
    "0",
    "1",
    "4",
    "65",
    "257",
    "-1",
    "-9223372036854775808",
    "4000000000",
    "2305843009213693952",
    "9223372036854775808",
    "12297829382473034410",
    "18446744073709551615",
    "18446744073709551616",
    "0xffffffffffffffff",
];

/// Tokens of other spec lines, so a swap can still parse.
const WORDS: &[&str] = &[
    "star",
    "eth",
    "hybrid",
    "serial",
    "parallel",
    "reference",
    "sort",
    "poison",
    "bursty",
    "amoheavy",
    "none",
    "light",
    "heavy",
    "quiet",
    "blackhole:5",
    "links",
    "all",
    "on",
    "off",
    "tenant",
    "priority",
    "deadline",
];

/// Bytes a spec file should never hold.
const STRAY: &[char] = &['\0', '\u{feff}', '\t', '\r', '#', 'é', '\u{7f}', ':', '\n'];

fn pick<T: Copy>(rng: &mut SimRng, xs: &[T]) -> T {
    xs[rng.gen_range(xs.len() as u64) as usize]
}

/// Applies one mutation to a spec's lines of tokens, naming it.
fn mutate(rng: &mut SimRng, lines: &mut Vec<Vec<String>>) -> &'static str {
    let slots: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| (0..toks.len()).map(move |t| (l, t)))
        .collect();
    if slots.is_empty() {
        lines.push(vec![pick(rng, WORDS).to_string()]);
        return "word";
    }
    let numbers: Vec<(usize, usize)> = slots
        .iter()
        .copied()
        .filter(|&(l, t)| lines[l][t].chars().next().is_some_and(|c| c.is_ascii_digit()))
        .collect();
    match rng.gen_range(9) {
        0 => {
            let ((la, ta), (lb, tb)) = (pick(rng, &slots), pick(rng, &slots));
            let a = lines[la][ta].clone();
            lines[la][ta] = std::mem::replace(&mut lines[lb][tb], a);
            "token swap"
        }
        1..=4 if !numbers.is_empty() => {
            let (l, t) = pick(rng, &numbers);
            lines[l][t] = pick(rng, ODD_NUMBERS).to_string();
            "odd number"
        }
        5 => {
            let (l, t) = pick(rng, &slots);
            lines[l][t] = pick(rng, WORDS).to_string();
            "word"
        }
        6 => {
            lines.remove(rng.gen_range(lines.len() as u64) as usize);
            "dropped line"
        }
        7 => {
            let line = lines[rng.gen_range(lines.len() as u64) as usize].clone();
            lines.insert(rng.gen_range(lines.len() as u64 + 1) as usize, line);
            "duplicated line"
        }
        _ => {
            let (l, t) = pick(rng, &slots);
            let tok = &mut lines[l][t];
            let at: Vec<usize> = (0..=tok.len()).filter(|&i| tok.is_char_boundary(i)).collect();
            tok.insert(pick(rng, &at), pick(rng, STRAY));
            "stray byte"
        }
    }
}

#[test]
fn mutated_job_specs_parse_or_fail_and_every_parse_round_trips() {
    let mut rng = SimRng::new(0x5BEC_F022);
    let seeds = seeds();
    let (mut parsed, mut rejected) = (0, 0);
    for n in 0..INPUTS {
        let mut lines: Vec<Vec<String>> = seeds[n % seeds.len()]
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        let kinds: Vec<&str> =
            (0..1 + rng.gen_range(3)).map(|_| mutate(&mut rng, &mut lines)).collect();
        let text = lines.iter().map(|toks| toks.join(" ") + "\n").collect::<String>();
        let what = format!("spec input {n} ({}):\n{text}", kinds.join(", "));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let spec = JobSpec::from_text(&text).ok()?;
            Some((JobSpec::from_text(&spec.to_text()), spec))
        }));
        match outcome {
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("{what}the parser panicked: {msg}");
            }
            Ok(None) => rejected += 1,
            Ok(Some((again, spec))) => {
                assert_eq!(again.as_ref(), Ok(&spec), "{what}a parsed spec does not round-trip");
                parsed += 1;
            }
        }
    }
    assert!(parsed > 0 && rejected > 0, "{parsed} parsed, {rejected} rejected: no teeth");
}
