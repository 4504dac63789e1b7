//! Never-panic properties for the text decoders of outside input.
//!
//! Expressions (`relation::expr::parse`), PLA documents
//! (`pla::dsl::parse_documents`, which `BiSystem::add_pla_text` calls)
//! and CSV tables (`relation::csv::from_csv`) are fed arbitrary strings
//! — ASCII syntax, multi-byte characters, control characters and random
//! code points — and mutations of valid inputs. Every call must return:
//! `Ok`, or a typed error that displays. A panic fails the property.

use plabi::pla::dsl::parse_documents;
use plabi::relation::csv::from_csv;
use plabi::relation::expr::parse;
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

/// Characters the decoders treat specially, plus multi-byte letters and
/// symbols (2, 3 and 4 bytes in UTF-8).
const ALPHABET: &[char] = &[
    'a', 'Z', 'x', '_', '.', '0', '7', ' ', '\t', '\n', '\r', '(', ')', ',', '+', '-', '*', '/',
    '=', '<', '>', '!', '\'', '"', '#', '{', '}', ';', 'é', 'ï', '¢', '£', '€', '漢', '🙂', '\0',
];

fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).unwrap_or('\u{FFFD}')),
    ]
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..64).prop_map(|cs| cs.into_iter().collect())
}

/// Up to six single-character edits at relative positions: insert,
/// replace or delete.
fn edits() -> impl Strategy<Value = Vec<(f64, u8, char)>> {
    prop::collection::vec((0.0f64..1.0, any::<u8>(), any_char()), 1..7)
}

fn mutate(seed: &str, edits: &[(f64, u8, char)]) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for &(at, op, c) in edits {
        let i = ((chars.len() as f64) * at) as usize;
        match op % 3 {
            0 => chars.insert(i.min(chars.len()), c),
            1 if i < chars.len() => chars[i] = c,
            2 if i < chars.len() => {
                chars.remove(i);
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

const EXPRESSIONS: &[&str] = &[
    "Disease <> 'HIV'",
    "a = 1 OR b = 2 AND c = 3",
    "(a = 1 OR b = 2) AND NOT c >= 3.5",
    "Date >= DATE '2007-01-01' AND Drug IN ('DH', 'DR')",
    "Cost NOT BETWEEN 10 AND 60 AND x IS NOT NULL",
    "coalesce(Doctor, 'unknown') = substr(Name, 1, 3)",
    "-abs(p.Cost - 2) * 4 / 2 + year(Date) != 2007",
];

const PLA_DOCUMENT: &str = r#"
# Hospital's agreement.
pla "hospital-2008" source hospital version 2 level meta-report {
  allow attribute Prescriptions.Doctor to analyst, auditor when Disease <> 'HIV';
  restrict rows Prescriptions when Patient <> 'Math';
  require aggregation Prescriptions min 5;
  anonymize Prescriptions.Patient with pseudonym;
  anonymize Prescriptions.Date with generalize 2;
  anonymize DrugCost.Cost with noise 5.5;
  forbid join hospital with laboratory;
  retain Prescriptions.Date for 730 days;
  purpose reimbursement, quality;
}
pla "lab" source laboratory version 1 level source {
  allow integration by laboratory;
}
"#;

const CSV: &str = "Patient,Cost,Date\nAlice,60,2007-02-12\n\"Chris, Jr.\",,2008-04-15\n\"Quote\"\"y\",10,2007-08-10\n";

fn csv_schema() -> Schema {
    Schema::new(vec![
        Column::new("Patient", DataType::Text),
        Column::nullable("Cost", DataType::Int),
        Column::nullable("Date", DataType::Date),
    ])
    .unwrap()
}

/// Runs every decoder on `text`; each must return, and an error must
/// display.
fn decode_all(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse(text) {
        prop_assert!(!e.to_string().is_empty());
    }
    if let Err(e) = parse_documents(text) {
        prop_assert!(!e.to_string().is_empty());
    }
    if let Err(e) = from_csv("T", csv_schema(), text) {
        prop_assert!(!e.to_string().is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings never panic any decoder.
    #[test]
    fn arbitrary_text_never_panics_a_decoder(text in arbitrary_text()) {
        decode_all(&text)?;
    }

    /// Mutated valid expressions never panic the expression parser,
    /// alone or embedded as a PLA `when` condition.
    #[test]
    fn mutated_expressions_never_panic(
        seed in 0..EXPRESSIONS.len(),
        edits in edits(),
    ) {
        let text = mutate(EXPRESSIONS[seed], &edits);
        decode_all(&text)?;
        let doc = format!(
            "pla \"x\" source s version 1 level report {{\n  restrict rows T when {text};\n}}"
        );
        if let Err(e) = parse_documents(&doc) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Mutated valid PLA documents never panic the DSL parser.
    #[test]
    fn mutated_pla_documents_never_panic(edits in edits()) {
        let text = mutate(PLA_DOCUMENT, &edits);
        if let Err(e) = parse_documents(&text) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Mutated valid CSV never panics the CSV decoder.
    #[test]
    fn mutated_csv_never_panics(edits in edits()) {
        let text = mutate(CSV, &edits);
        if let Err(e) = from_csv("T", csv_schema(), &text) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

/// The inputs that used to panic the expression lexer: now a parse, or
/// a typed error.
#[test]
fn former_lexer_panics_return() {
    for text in ["é = 1", "naïve = 1", "c¢= 1", "Dis£ase <> 'HIV'"] {
        let _ = parse(text);
        let doc =
            format!("pla \"x\" source s version 1 level report {{ restrict rows T when {text}; }}");
        let _ = parse_documents(&doc);
    }
    assert!(parse("é = 1").is_ok());
    assert!(parse("c¢= 1").is_err());
}
