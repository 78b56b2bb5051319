//! The JSON tree builders over the request scanner — `rpr_serve::
//! parse_json` and `rpr_format::parse_certificate` — against the
//! recursive-descent parsers they replaced, kept in `reference/`.
//!
//! On every input, where a builder and its old parser both accept, the
//! trees are equal, and a builder never accepts what its old parser
//! rejected. Where only the old parser accepts, the input is invalid
//! JSON of one of the classes listed below, named by the scanner's
//! error and the byte it points at. The inputs are the audit corpus
//! certificates (each also re-rendered byte for byte), every truncation
//! of them, seeded byte edits of them, and hand-written documents.

mod reference;

use rpr_format::{parse_certificate, render_value, FormatError};
use rpr_serve::parse_json;
use std::collections::BTreeMap;

const CORPUS: &str = include_str!("../../audit/tests/corpus/certificates.jsonl");

/// A class of invalid JSON that only an old parser accepts: the
/// scanner's error message, and a test of the bytes at its offset.
struct OldOnly {
    message: &'static str,
    class: &'static str,
    at: fn(&[u8], usize) -> bool,
}

fn is_nest(b: &[u8], i: usize) -> bool {
    matches!(b.get(i), Some(b'[' | b'{'))
}

fn is_leading_zero(b: &[u8], i: usize) -> bool {
    b.get(i) == Some(&b'0') && b.get(i + 1).is_some_and(u8::is_ascii_digit)
}

const LEADING_ZERO: OldOnly = OldOnly {
    message: "leading zero in number",
    class: "a number with a leading zero (`01`, `-00`)",
    at: is_leading_zero,
};

/// What only the old serve parser accepts.
const SERVE_OLD_ONLY: &[OldOnly] = &[
    OldOnly {
        message: "control character in string",
        class: "a raw control character (below 0x20) in a string",
        at: |b, i| b.get(i).is_some_and(|&c| c < 0x20),
    },
    LEADING_ZERO,
    OldOnly {
        message: "expected digits after `.`",
        class: "a point without digits after it (`1.`, `1.e5`)",
        at: |b, i| i > 0 && b[i - 1] == b'.',
    },
    OldOnly {
        message: "expected digits",
        class: "a point without digits before it (`-.5`)",
        at: |b, i| b.get(i) == Some(&b'.'),
    },
    OldOnly {
        message: "bad \\u escape",
        class: "a `\\u` escape with a sign (`\\u+041`)",
        at: |b, i| b.get(i) == Some(&b'+'),
    },
    OldOnly {
        message: "nesting too deep",
        class: "65 nested containers whose innermost is empty",
        at: is_nest,
    },
];

/// What only the old certificate parser accepts.
const CERT_OLD_ONLY: &[OldOnly] = &[
    LEADING_ZERO,
    OldOnly { message: "nesting too deep", class: "more than 64 nested containers", at: is_nest },
];

/// Outcomes of one builder against its old parser.
#[derive(Default)]
struct Tally {
    both: usize,
    neither: usize,
    old_only: BTreeMap<&'static str, usize>,
}

impl Tally {
    fn old_only(&mut self, classes: &[OldOnly], doc: &str, offset: usize, message: &str) {
        let class = classes
            .iter()
            .find(|c| c.message == message && (c.at)(doc.as_bytes(), offset))
            .unwrap_or_else(|| {
                panic!("only the old parser accepts {doc:?} (new: {message} at byte {offset})")
            });
        *self.old_only.entry(class.class).or_default() += 1;
    }

    /// Every listed class was seen, so the list holds no dead entry.
    fn assert_covers(&self, name: &str, classes: &[OldOnly]) {
        for class in classes {
            assert!(self.old_only.contains_key(class.class), "{name}: never saw {:?}", class.class);
        }
        println!(
            "{name}: both accept {}, both reject {}, only the old parser accepts {:?}",
            self.both, self.neither, self.old_only
        );
    }
}

/// The offset and message of a certificate error (`byte N: message`).
fn cert_error(e: &FormatError) -> (usize, &str) {
    let (offset, message) = e
        .message
        .strip_prefix("byte ")
        .and_then(|rest| rest.split_once(": "))
        .unwrap_or_else(|| panic!("certificate errors name a byte: {e}"));
    (offset.parse().expect("a byte offset"), message)
}

#[derive(Default)]
struct Differential {
    serve: Tally,
    cert: Tally,
}

impl Differential {
    fn compare(&mut self, doc: &str) {
        match (reference::json::parse_json(doc), parse_json(doc)) {
            (Ok(old), Ok(new)) => {
                assert_eq!(new, old, "Json trees differ on {doc:?}");
                self.serve.both += 1;
            }
            (Err(_), Err(_)) => self.serve.neither += 1,
            (Err(old), Ok(_)) => panic!("the Json builder accepts {doc:?}; the old parser: {old}"),
            (Ok(_), Err(new)) => self.serve.old_only(SERVE_OLD_ONLY, doc, new.offset, new.message),
        }
        match (reference::certificate_json::parse_certificate(doc), parse_certificate(doc)) {
            (Ok(old), Ok(new)) => {
                assert_eq!(new, old, "certificate trees differ on {doc:?}");
                self.cert.both += 1;
            }
            (Err(_), Err(_)) => self.cert.neither += 1,
            (Err(old), Ok(_)) => {
                panic!("the certificate builder accepts {doc:?}; the old parser: {old}")
            }
            (Ok(_), Err(new)) => {
                let (offset, message) = cert_error(&new);
                self.cert.old_only(CERT_OLD_ONLY, doc, offset, message);
            }
        }
    }
}

/// A seeded xorshift generator, so every run edits the same bytes.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Bytes an edit writes: JSON punctuation, number and literal letters,
/// escapes, whitespace, control bytes, DEL.
const EDIT_BYTES: &[u8] = b"\"\\{}[],:0123456789-+.eEtfnulrbdDaA \t\n\x00\x01\x1f\x7f";

/// One seeded edit of `cert`: overwrite, insert or delete a byte, or
/// repeat a short span; `None` when the result is not UTF-8.
fn edit(cert: &str, rng: &mut Rng) -> Option<String> {
    let mut bytes = cert.as_bytes().to_vec();
    let at = rng.below(bytes.len());
    let byte = EDIT_BYTES[rng.below(EDIT_BYTES.len())];
    match rng.below(4) {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 => drop(bytes.remove(at)),
        _ => {
            let end = (at + 1 + rng.below(12)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
    }
    String::from_utf8(bytes).ok()
}

fn certificates() -> impl Iterator<Item = &'static str> {
    CORPUS.lines().filter(|line| !line.is_empty())
}

#[test]
fn genuine_certificates_parse_alike_and_re_render_byte_for_byte() {
    let mut diff = Differential::default();
    for cert in certificates() {
        diff.compare(cert);
        let doc = parse_certificate(cert).expect("genuine certificates parse");
        assert_eq!(render_value(&doc), cert, "re-rendering is not byte-identical");
    }
    assert!(diff.serve.both >= 30 && diff.serve.both == diff.cert.both);
    assert_eq!(diff.serve.old_only.len() + diff.cert.old_only.len(), 0);
}

#[test]
fn every_truncation_of_the_corpus_is_rejected_alike() {
    let mut diff = Differential::default();
    for cert in certificates() {
        for cut in (0..cert.len()).filter(|&cut| cert.is_char_boundary(cut)) {
            diff.compare(&cert[..cut]);
        }
    }
    // A proper prefix of an object is never a document.
    assert_eq!(diff.serve.both + diff.cert.both, 0);
    assert!(diff.serve.neither > 90_000 && diff.serve.neither == diff.cert.neither);
}

#[test]
fn seeded_byte_edits_of_the_corpus_parse_alike() {
    let mut diff = Differential::default();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for cert in certificates() {
        for _ in 0..400 {
            if let Some(doc) = edit(cert, &mut rng) {
                diff.compare(&doc);
            }
        }
    }
    println!(
        "edits: Json {} / {} / {:?}; certificate {} / {} / {:?}",
        diff.serve.both,
        diff.serve.neither,
        diff.serve.old_only,
        diff.cert.both,
        diff.cert.neither,
        diff.cert.old_only
    );
    // Enough edits keep a document, and enough break it.
    for tally in [&diff.serve, &diff.cert] {
        assert!(tally.both >= 1_000 && tally.neither >= 1_000);
    }
}

/// Documents nested `n` containers deep around `inner`.
fn nested(n: usize, inner: &str) -> Vec<String> {
    vec![
        format!("{}{inner}{}", "[".repeat(n), "]".repeat(n)),
        format!("{}{inner}{}", "{\"k\":".repeat(n), "}".repeat(n)),
        format!("{}{inner}{}", "[{\"k\":".repeat(n / 2), "}]".repeat(n / 2)),
    ]
}

#[test]
fn hand_written_documents_parse_alike() {
    let mut docs: Vec<String> = Vec::new();
    for n in [1, 63, 64, 65] {
        for inner in ["1", "[]", "{}", "\"s\""] {
            docs.extend(nested(n, inner));
        }
    }
    let numbers = [
        "0",
        "-0",
        "7",
        "-7",
        "01",
        "-01",
        "00",
        "-00",
        "1.",
        "-1.",
        "1.e5",
        ".5",
        "-.5",
        "1.5",
        "-1.5",
        "2.0",
        "1e5",
        "1E+5",
        "1e-5",
        "1e",
        "1e+",
        "-",
        "+1",
        "1.5.5",
        "0x10",
        "1-2",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "1e400",
        "-1e400",
    ];
    for n in numbers {
        docs.extend([
            n.to_owned(),
            format!("[{n}]"),
            format!("{{\"a\": {n}}}"),
            format!("[1,{n},2]"),
        ]);
    }
    let strings = [
        r#""\"\\\/\b\f\n\r\t""#,
        r#""\u0041\u00e9\u20AC\u0000""#,
        r#""\q""#,
        r#""\u+041""#,
        r#""\u00zz""#,
        r#""\u12""#,
        r#""\u""#,
        "\"\\",
        "\"unterminated",
        "\"a\u{1}b\"",
        "\"\t\"",
        "\"\u{0}\"",
        "\"\u{7f}\"",
        "\"é😀\"",
        // Surrogates: pairs, lone halves, a high half before a non-low.
        r#""\ud83d\ude00""#,
        r#""\uD83D\uDE00""#,
        r#""\udbff\udfff""#,
        r#""\ud800""#,
        r#""x\ud800y""#,
        r#""\udc00""#,
        r#""\ud800\ud800""#,
        r#""\ud800A""#,
        r#""\ud800\n""#,
        r#""\\ud800""#,
    ];
    for s in strings {
        docs.extend([
            s.to_owned(),
            format!("[{s}]"),
            format!("{{{s}: 1}}"),
            format!("{{\"a\": {s}}}"),
        ]);
    }
    docs.extend(
        [
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"\u0061":2}"#,
            r#"{"x":{"a":1,"a":[2]}}"#,
            r#"{"a":{},"b":{},"a":3}"#,
            r#"[{"a":1},{"a":1}]"#,
            "true",
            "false",
            "null",
            "[true,false,null]",
            "nul",
            "tru",
            " {} ",
            "\t[ ]\n",
            "{ \"a\" : [ 1 , \"b\" ] }",
            "",
            " ",
            "{",
            "}",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1} x",
            "[1 2]",
            "{1:2}",
            r#"{"workspace": "relation R/2\nfd R: 1 -> 2\nfact R(x\ud800, a)\nfact R(x\udc00, b)\n"}"#,
        ]
        .map(str::to_owned),
    );

    let mut diff = Differential::default();
    for doc in &docs {
        diff.compare(doc);
    }
    diff.serve.assert_covers("Json", SERVE_OLD_ONLY);
    diff.cert.assert_covers("certificate", CERT_OLD_ONLY);
}
