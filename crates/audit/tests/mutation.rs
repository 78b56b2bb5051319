//! The auditor against the tree auditor it replaced (`reference/`), on
//! the committed corpus of genuine certificates (`corpus/`, rebuilt by
//! `corpus/regenerate.sh`) and on a fixed-seed stream of mutations of
//! each: every prefix ending on a char boundary, then random bit flips,
//! replacements, inserts and deletes. Neither auditor may panic, and
//! the two must agree on every input: the same report, or the same
//! error message.

mod reference;

use std::panic::{catch_unwind, AssertUnwindSafe};

const CORPUS: &str = include_str!("corpus/certificates.jsonl");

/// Random mutants per certificate, on top of its truncations.
const MUTANTS: usize = 400;

const SEED: u64 = 0x5eed_a0d1_7c0f_fee5;

/// Characters worth inserting: JSON structure, digits (fact ids,
/// attributes, lengths), value-encoding tags, escapes, a control
/// character and multibyte text.
const ALPHABET: &[char] = &[
    '0', '1', '2', '3', '9', '-', '[', ']', '{', '}', ',', ':', '"', '\\', 'u', 'i', 's', 'p', '(',
    ')', ' ', '\u{1}', 'é', '✓',
];

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A report as `(kind, verdict, facts, relations)`, or the message.
type Answer = Result<(String, Option<String>, usize, usize), String>;

fn shipped(text: &str) -> Answer {
    rpr_audit::audit(text).map(|r| (r.kind, r.verdict, r.facts, r.relations)).map_err(|e| e.message)
}

fn reference(text: &str) -> Answer {
    reference::audit(text).map(|r| (r.kind, r.verdict, r.facts, r.relations)).map_err(|e| e.message)
}

/// Both auditors' answer on `text`, which must be the same.
fn agreed(text: &str, what: &str) -> Answer {
    // Long inputs are named, not printed: `what` says how to rebuild them.
    let shown = if text.len() <= 600 { text } else { "(too long to show)" };
    let run = |name: &str, auditor: fn(&str) -> Answer| {
        catch_unwind(AssertUnwindSafe(|| auditor(text)))
            .unwrap_or_else(|_| panic!("{what}: the {name} auditor panicked on {shown}"))
    };
    let answer = run("shipped", shipped);
    assert_eq!(answer, run("reference", reference), "{what}: the auditors disagree on {shown}");
    answer
}

/// One random edit of `text` at a char boundary.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    let at = bounds[rng.below(bounds.len())];
    let len = text[at..].chars().next().map_or(0, char::len_utf8);
    let pick = ALPHABET[rng.below(ALPHABET.len())];
    let (head, tail) = text.split_at(at);
    match rng.below(4) {
        // Flip one of the low seven bits of an ASCII byte.
        0 if text.as_bytes()[at].is_ascii() => {
            let flipped = (text.as_bytes()[at] ^ (1 << rng.below(7))) as char;
            format!("{head}{flipped}{}", &tail[len..])
        }
        0 | 1 => format!("{head}{pick}{}", &tail[len..]),
        2 => format!("{head}{pick}{tail}"),
        _ => format!("{head}{}", &tail[len..]),
    }
}

fn corpus() -> Vec<&'static str> {
    CORPUS.lines().filter(|line| !line.is_empty()).collect()
}

#[test]
fn the_corpus_covers_every_verdict_both_modes_and_a_large_certificate() {
    let certs = corpus();
    let mut verdicts = Vec::new();
    for (i, text) in certs.iter().enumerate() {
        let (kind, verdict, _, _) =
            agreed(text, &format!("certificate {i}")).expect("genuine certificates pass");
        verdicts.push(verdict.unwrap_or(kind));
    }
    for kind in ["classification", "optimal", "improvable", "inconsistent"] {
        assert!(verdicts.iter().any(|v| v == kind), "no {kind} certificate in {verdicts:?}");
    }
    for mode in ["conflict", "ccp"] {
        let tag = format!("\"mode\":\"{mode}\"");
        assert!(certs.iter().any(|text| text.contains(&tag)), "no {mode}-mode certificate");
    }
    assert!(certs.iter().any(|text| text.len() >= 20 * 1024), "no certificate of 20 KB or more");
}

#[test]
fn every_truncation_gets_the_same_answer_from_both_auditors() {
    for (i, text) in corpus().into_iter().enumerate() {
        for (at, _) in text.char_indices() {
            let answer = agreed(&text[..at], &format!("certificate {i} cut at byte {at}"));
            assert!(answer.is_err(), "certificate {i}: the prefix of {at} bytes passed");
        }
    }
}

#[test]
fn every_mutant_gets_the_same_answer_from_both_auditors() {
    let mut rng = Rng(SEED);
    let mut rejected = 0usize;
    let mut total = 0usize;
    for (i, text) in corpus().into_iter().enumerate() {
        for m in 0..MUTANTS {
            let mut mutant = mutate(text, &mut rng);
            for _ in 0..rng.below(3) {
                mutant = mutate(&mutant, &mut rng);
            }
            total += 1;
            if agreed(&mutant, &format!("certificate {i}, mutant {m}")).is_err() {
                rejected += 1;
            }
        }
    }
    // Most edits break the certificate; a few (a space, a reordered
    // equal value) leave a valid one.
    assert!(rejected * 10 > total * 8, "only {rejected} of {total} mutants rejected");
}
