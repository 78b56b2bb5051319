//! Differential test: the byte-level workspace parser and delta-op
//! tokenizer against the `str`-level ones they replaced (kept in
//! `reference/`). On success both must give the same schema, the same
//! facts in id order, the same priority edges, mode and repairs; on
//! failure the same `(line, message)`.
//!
//! The generated workspaces put tabs, vertical tabs, `\r\n`, U+00A0,
//! U+2003 and U+0085 at token and line edges; use the tokens `+5`,
//! `-0`, `007`, `9223372036854775808` and `1_000` beside the values they
//! equal or resemble; and mix forward `prefer`s, duplicate fact lines,
//! comments and an occasional malformed line.

mod reference;

use proptest::prelude::*;
use rpr_data::{FactId, Value};
use rpr_format::{
    delta_ops_from_strings, parse_delta_op, parse_delta_script, parse_workspace, Workspace,
};

/// A splitmix64 stream, so one `u64` from proptest drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Value tokens: integers in several spellings, numerals out of `i64`
/// range, near-numerals that are symbols, and multibyte symbols.
const TOKENS: &[&str] = &[
    "a",
    "b",
    "x1",
    "+5",
    "5",
    "-0",
    "0",
    "007",
    "7",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "1_000",
    "1000",
    "-",
    "+",
    "é",
    "Ωmega",
    "−3",
    "a b",
];

/// Padding put around tokens, names and lines: ASCII whitespace that
/// `u8::is_ascii_whitespace` knows and U+000B that it does not, and
/// Unicode whitespace that only `str::trim` strips.
const PADS: &[&str] =
    &["", "", "", " ", "  ", "\t", "\u{0B}", "\u{0C}", "\u{A0}", "\u{2003}", "\u{85}", " \u{A0}\t"];

fn pad(rng: &mut Rng) -> &'static str {
    if rng.chance(70) {
        ""
    } else {
        rng.pick(PADS)
    }
}

/// The fact text `rel(v1, …, vn)`, padded at random.
fn fact_text(rng: &mut Rng, rel: &str, values: &[&str]) -> String {
    let mut out = format!("{}{rel}{}(", pad(rng), pad(rng));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(pad(rng));
        out.push_str(v);
        out.push_str(pad(rng));
    }
    out.push(')');
    out.push_str(pad(rng));
    out
}

/// A malformed line that some stage of the parser must reject.
fn junk(rng: &mut Rng) -> String {
    rng.pick(&[
        "fact R(a, 1",
        "fact R a, 1)",
        "fact R(a)",
        "fact R(a, 1, 2)",
        "fact T(a, 1)",
        "fact\u{A0}R(a, 1)",
        "prefer R(a, 1) R(a, 2)",
        "prefer R(a, 1) > T(a, 2)",
        "prefer R(a, 1 > R(a, 2)",
        "repair K R(a, 1)",
        "repair K: R(a); R(a, 1)",
        "fd R 1 -> 2",
        "fd R: 1 -> 9",
        "fd T: 1 -> 2",
        "mode sideways",
        "relation Q",
        "bogus",
        "fact",
    ])
    .to_owned()
}

/// One generated workspace text.
fn workspace_text(seed: u64) -> String {
    let mut rng = Rng(seed);
    let rels: &[(&str, usize)] = &[("R", 2), ("Sé", 3), ("T1", 1)];
    let facts: Vec<(usize, Vec<&str>)> = (0..1 + rng.below(14))
        .map(|_| {
            let r = rng.below(rels.len());
            let values = (0..rels[r].1).map(|_| rng.pick(TOKENS)).collect();
            (r, values)
        })
        .collect();
    let mut lines: Vec<String> = Vec::new();
    for &(name, arity) in rels {
        lines.push(format!("{}relation {name}/{arity}", pad(&mut rng)));
    }
    lines.push("fd R: 1 -> 2".into());
    if rng.chance(50) {
        lines.push("fd Sé: 1, 2 -> 3".into());
    }
    if rng.chance(30) {
        lines.push("fd T1: - -> 1".into());
    }
    if rng.chance(25) {
        lines.push(format!("mode {}", rng.pick(&["ccp", "conflict", "cross-conflict"])));
    }
    let fact_line = |rng: &mut Rng, (r, values): &(usize, Vec<&str>)| {
        format!("fact {}", fact_text(rng, rels[*r].0, values))
    };
    // Mostly from an earlier fact to a later one, so most priorities
    // are acyclic; now and then an undeclared fact.
    let prefer_line = |rng: &mut Rng, facts: &[(usize, Vec<&str>)]| {
        let (mut i, mut j) = (rng.below(facts.len()), rng.below(facts.len()));
        if i > j && rng.chance(85) {
            (i, j) = (j, i);
        }
        let (a, b) = (&facts[i], &facts[j]);
        let (a, mut b) = (fact_text(rng, rels[a.0].0, &a.1), fact_text(rng, rels[b.0].0, &b.1));
        if rng.chance(5) {
            b = "T1(undeclared)".into();
        }
        format!("prefer {a}>{b}")
    };
    // Forward references: prefers before any fact line.
    for _ in 0..rng.below(3) {
        lines.push(prefer_line(&mut rng, &facts));
    }
    for fact in &facts {
        lines.push(fact_line(&mut rng, fact));
        if rng.chance(15) {
            lines.push(fact_line(&mut rng, fact)); // a duplicate
        }
        if rng.chance(10) {
            lines.push(format!("# {}", rng.pick(TOKENS)));
        }
        if rng.chance(10) {
            lines.push(String::new());
        }
    }
    for _ in 0..rng.below(4) {
        lines.push(prefer_line(&mut rng, &facts));
    }
    for k in 0..rng.below(3) {
        let mut members = Vec::new();
        for _ in 0..rng.below(4) {
            let (r, values) = &facts[rng.below(facts.len())];
            members.push(fact_text(&mut rng, rels[*r].0, values));
        }
        if rng.chance(10) {
            members.push("R(never, declared)".into());
        }
        lines.push(format!("repair J{k}: {}", members.join(";")));
    }
    if rng.chance(30) {
        let at = rng.below(lines.len() + 1);
        lines.insert(at, junk(&mut rng));
    }
    let mut text = String::new();
    for l in lines {
        text.push_str(pad(&mut rng));
        text.push_str(&l);
        text.push_str(pad(&mut rng));
        text.push_str(if rng.chance(20) { "\r\n" } else { "\n" });
    }
    if rng.chance(10) {
        text.pop(); // no final line ending, or a bare `\r` at the end
    }
    text
}

/// Everything a parsed workspace says, in a comparable form.
fn summary(ws: &Workspace) -> String {
    let sig = ws.schema.signature();
    let mut out = format!("{:?}\n{:?}\nmode {:?}\n", sig, ws.schema.fds(), ws.mode);
    for i in 0..ws.instance.len() {
        let fact = ws.instance.fact(FactId(i as u32));
        out.push_str(&format!("{i}: {:?}", fact.rel()));
        for value in fact.values() {
            // `Value`'s `Debug` prints `Int(5)` and `Sym("5")` alike.
            match value {
                Value::Int(n) => out.push_str(&format!(" int {n}")),
                Value::Sym(s) => out.push_str(&format!(" sym {s:?}")),
                Value::Pair(_) => unreachable!("no token spells a pair"),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("edges {:?}\n", ws.priority.edges()));
    for (name, set) in &ws.repairs {
        out.push_str(&format!("repair {name:?}: {:?}\n", set.iter().collect::<Vec<_>>()));
    }
    out
}

/// Both parsers on `text`: the same workspace or the same error. On
/// success, also the same delta ops and scripts from both tokenizers.
fn assert_agree(text: &str, rng: &mut Rng) {
    match (parse_workspace(text), reference::parse_workspace(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(summary(&new), summary(&old), "{text:?}");
            assert_delta_ops_agree(&new, rng);
        }
        (Err(new), Err(old)) => {
            assert_eq!((new.line, &new.message), (old.line, &old.message), "{text:?}")
        }
        (new, old) => panic!("parsers disagree on {text:?}:\nnew {new:?}\nold {old:?}"),
    }
}

/// Delta ops over the workspace's facts and some malformed ones, padded
/// as the workspace lines are.
fn assert_delta_ops_agree(ws: &Workspace, rng: &mut Rng) {
    let sig = ws.instance.signature();
    let fact = |rng: &mut Rng| {
        if ws.instance.is_empty() || rng.chance(10) {
            return rng.pick(&["R(a)", "R(a, 1", "T(a, 1)", "R a, 1)", "R(+5, \u{A0}007)"]).into();
        }
        let f = ws.instance.fact(FactId(rng.below(ws.instance.len()) as u32));
        let values: Vec<String> = f.values().map(|v| v.to_string()).collect();
        let values: Vec<&str> = values.iter().map(String::as_str).collect();
        fact_text(rng, sig.symbol(f.rel()).name(), &values)
    };
    let ops: Vec<String> = (0..1 + rng.below(6))
        .map(|_| {
            let verb = rng.pick(&["insert ", "delete ", "prefer ", "unprefer ", "upsert ", ""]);
            let body = if verb.ends_with("prefer ") && !rng.chance(10) {
                format!("{}>{}", fact(rng), fact(rng))
            } else {
                fact(rng)
            };
            format!("{}{verb}{body}{}", pad(rng), pad(rng))
        })
        .collect();
    for (i, op) in ops.iter().enumerate() {
        let new = parse_delta_op(sig, op, i + 1);
        let old = reference::parse_delta_op(sig, op, i + 1);
        assert_eq!(new, old, "{op:?}");
    }
    let old: Result<Vec<_>, _> =
        ops.iter().enumerate().map(|(i, s)| reference::parse_delta_op(sig, s, i + 1)).collect();
    assert_eq!(delta_ops_from_strings(sig, &ops), old);
    // The same ops as an `rpr delta` script, with a padded comment, a
    // padded blank line and mixed line endings.
    let mut script = format!("{}# ops\r\n{}\n", rng.pick(PADS), rng.pick(PADS));
    for op in &ops {
        script.push_str(op);
        script.push_str(if rng.chance(30) { "\r\n" } else { "\n" });
    }
    assert_eq!(parse_delta_script(sig, &script), reference::parse_delta_script(sig, &script));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_workspaces_parse_alike(seed in any::<u64>()) {
        let text = workspace_text(seed);
        assert_agree(&text, &mut Rng(!seed));
    }
}

/// The committed sample workspaces, with `\r\n` line endings too.
#[test]
fn sample_workspaces_parse_alike() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rpr") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert_agree(&text, &mut Rng(seen));
            assert_agree(&text.replace('\n', "\r\n"), &mut Rng(seen));
            seen += 1;
        }
    }
    assert!(seen >= 5, "found {seen} sample workspaces");
}

/// Edge cases of the token and line rules, one text each.
#[test]
fn token_and_line_edges_parse_alike() {
    let cases = [
        "",
        "\n\n",
        "relation R/1",
        "relation R/1\r",
        "relation R/1\nfact R(\u{A0}+5\u{2003})\nfact R(5)\nrepair J: R(0005)",
        "relation R/1\nfact R(9223372036854775808)\nfact R(-9223372036854775809)\nfact R(1_000)",
        "relation R/1\nfact R(\u{0B}-0\u{0B})\nprefer R(0) > R(-0)",
        "relation R/1\nfact R()\nfact R( )\nrepair J: R(\t)",
        "relation R/2\nfact R(a(b, c)\nfact R(a), b)\nprefer R(a(b, c) > R(a), b)",
        "relation R/2\nfact R(a>b, c)\nprefer R(a>b, c) > R(a, c)",
        "relation R/2\nprefer R(a, 1) > R(a, 2)\nfact R(a, 1)\nfact R(a, 2)\nfact R(a, 1)",
        "relation R/2\nfact R(a, 1)\nfact R(a, 2)\nprefer R(a, 1) > R(a, 2)\nprefer R(a, 2) > R(a, 1)",
        "relation R/2\n\u{85}fact R(a, 1)\u{85}\nfact\tR(a, 2)",
        "relation R/2\nfact \u{2003}R\u{2003}(a, 1)\nrepair J:; ;R(a,1);",
        "relation R/2\nrelation S/2\nfact R(a, 1)\nfact S(a, 1)\nfact R(a, 2)\nfact S(b, 1)",
    ];
    for (i, text) in cases.iter().enumerate() {
        assert_agree(text, &mut Rng(i as u64));
    }
}
