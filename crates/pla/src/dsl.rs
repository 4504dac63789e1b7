//! A textual format for PLA documents.
//!
//! The paper closes (§6) calling for "languages and models for
//! annotations and PLAs for BI applications". This DSL is that language
//! for our stack: human-readable, diff-able, versioned, and exactly
//! round-trippable through `PlaDocument`'s `Display`:
//!
//! ```text
//! # Hospital's agreement, elicited on the drug-consumption meta-report.
//! pla "hospital-2008" source hospital version 2 level meta-report {
//!   allow attribute Prescriptions.Doctor to analyst, auditor when Disease <> 'HIV';
//!   restrict rows Prescriptions when Patient <> 'Math';
//!   require aggregation Prescriptions min 5;
//!   anonymize Prescriptions.Patient with pseudonym;
//!   anonymize Prescriptions.Date with generalize 2;
//!   forbid join hospital with laboratory;
//!   allow integration by municipality;
//!   retain Prescriptions.Date for 730 days;
//!   purpose reimbursement, quality;
//! }
//! ```
//!
//! Conditions after `when` use the expression syntax of
//! `bi_relation::expr::parse`. Comments run from `#` to end of line.

use std::collections::BTreeSet;

use bi_types::RoleId;

use crate::document::{PlaDocument, PlaLevel};
use crate::error::PlaError;
use crate::rule::{AnonMethod, AttrRef, PlaRule};

/// Parses exactly one document.
pub fn parse_document(text: &str) -> Result<PlaDocument, PlaError> {
    let docs = parse_documents(text)?;
    let n = docs.len();
    match docs.into_iter().next() {
        Some(doc) if n == 1 => Ok(doc),
        _ => Err(PlaError::Parse {
            message: format!("expected exactly 1 document, found {n}"),
            line: 1,
        }),
    }
}

/// Parses a file that may contain several documents.
pub fn parse_documents(text: &str) -> Result<Vec<PlaDocument>, PlaError> {
    let clean = strip_comments(text);
    let mut docs = Vec::new();
    let mut rest = clean.as_str();
    let mut consumed_lines = 0usize;
    loop {
        let trimmed = rest.trim_start();
        consumed_lines += count_lines(&rest[..rest.len() - trimmed.len()]);
        if trimmed.is_empty() {
            return Ok(docs);
        }
        let (doc, remainder, used_lines) = parse_one(trimmed, consumed_lines + 1)?;
        consumed_lines += used_lines;
        docs.push(doc);
        rest = remainder;
    }
}

fn count_lines(s: &str) -> usize {
    s.bytes().filter(|&b| b == b'\n').count()
}

fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        // `#` starts a comment unless inside a quoted string.
        let mut in_str: Option<char> = None;
        let mut cut = line.len();
        for (i, c) in line.char_indices() {
            match (in_str, c) {
                (None, '\'') => in_str = Some('\''),
                (None, '"') => in_str = Some('"'),
                (Some(q), c) if c == q => in_str = None,
                (None, '#') => {
                    cut = i;
                    break;
                }
                _ => {}
            }
        }
        out.push_str(&line[..cut]);
        out.push('\n');
    }
    out
}

/// Parses one `pla … { … }`; returns (document, remaining text, lines used).
fn parse_one(text: &str, line0: usize) -> Result<(PlaDocument, &str, usize), PlaError> {
    let err = |msg: &str| PlaError::Parse {
        message: msg.to_string(),
        line: line0,
    };
    let brace = text
        .find('{')
        .ok_or_else(|| err("expected '{' after document header"))?;
    let header = &text[..brace];
    let mut toks = header.split_whitespace();
    if toks.next() != Some("pla") {
        return Err(err("document must start with 'pla'"));
    }
    let id_tok = toks.next().ok_or_else(|| err("expected document id"))?;
    let id = id_tok
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err("document id must be double-quoted"))?;
    if toks.next() != Some("source") {
        return Err(err("expected 'source'"));
    }
    let source = toks.next().ok_or_else(|| err("expected source name"))?;
    if toks.next() != Some("version") {
        return Err(err("expected 'version'"));
    }
    let version: u32 = toks
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err("expected numeric version"))?;
    if toks.next() != Some("level") {
        return Err(err("expected 'level'"));
    }
    let level_tok = toks.next().ok_or_else(|| err("expected level"))?;
    let level =
        PlaLevel::by_name(level_tok).ok_or_else(|| err(&format!("unknown level {level_tok:?}")))?;
    if toks.next().is_some() {
        return Err(err("unexpected tokens before '{'"));
    }

    // Find the matching close brace (no nesting in this grammar), taking
    // quoted strings into account.
    let body_start = brace + 1;
    let mut in_str: Option<char> = None;
    let mut close = None;
    for (i, c) in text[body_start..].char_indices() {
        match (in_str, c) {
            (None, '\'') => in_str = Some('\''),
            (Some('\''), '\'') => in_str = None,
            (None, '}') => {
                close = Some(body_start + i);
                break;
            }
            _ => {}
        }
    }
    let close = close.ok_or_else(|| err("missing closing '}'"))?;
    let body = &text[body_start..close];

    let mut doc = PlaDocument::new(id, source, level);
    doc.version = version;
    for (stmt, stmt_line) in split_statements(body, line0 + count_lines(&text[..body_start])) {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        doc.rules.push(parse_rule(stmt, stmt_line)?);
    }
    let used = count_lines(&text[..=close]);
    Ok((doc, &text[close + 1..], used))
}

/// Splits body text on top-level `;` (quote-aware), tracking line numbers.
fn split_statements(body: &str, line0: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut cur_line = line0;
    let mut line = line0;
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '\n' => {
                line += 1;
                cur.push(c);
            }
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                out.push((std::mem::take(&mut cur), cur_line));
                cur_line = line;
            }
            _ => {
                if cur.trim().is_empty() && !c.is_whitespace() {
                    cur_line = line;
                }
                cur.push(c);
            }
        }
    }
    if !cur.trim().is_empty() {
        out.push((cur, cur_line));
    }
    out
}

fn parse_attr(tok: &str, line: usize) -> Result<AttrRef, PlaError> {
    tok.split_once('.')
        .map(|(t, c)| AttrRef::new(t, c))
        .ok_or_else(|| PlaError::Parse {
            message: format!("expected table.column, found {tok:?}"),
            line,
        })
}

fn parse_condition(text: &str) -> Result<bi_relation::Expr, PlaError> {
    bi_relation::expr::parse(text.trim()).map_err(|e| PlaError::Condition {
        message: e.to_string(),
    })
}

/// Splits a statement at the first ` when ` outside quotes.
fn split_when(stmt: &str) -> (&str, Option<&str>) {
    let mut in_str = false;
    let bytes = stmt.as_bytes();
    let needle = b" when ";
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        match bytes[i] {
            b'\'' => in_str = !in_str,
            _ if !in_str && &bytes[i..i + needle.len()] == needle => {
                return (&stmt[..i], Some(&stmt[i + needle.len()..]));
            }
            _ => {}
        }
        i += 1;
    }
    (stmt, None)
}

fn parse_rule(stmt: &str, line: usize) -> Result<PlaRule, PlaError> {
    let err = |msg: String| PlaError::Parse { message: msg, line };
    let (head, when) = split_when(stmt);
    let words: Vec<&str> = head.split_whitespace().collect();
    match words.as_slice() {
        ["allow", "attribute", attr, "to", roles @ ..] => {
            if roles.is_empty() {
                return Err(err("expected at least one role".into()));
            }
            let attribute = parse_attr(attr, line)?;
            let allowed_roles: BTreeSet<RoleId> = roles
                .join(" ")
                .split(',')
                .map(|r| RoleId::new(r.trim()))
                .filter(|r| !r.as_str().is_empty())
                .collect();
            if allowed_roles.is_empty() {
                return Err(err("expected at least one role".into()));
            }
            let condition = when.map(parse_condition).transpose()?;
            Ok(PlaRule::AttributeAccess {
                attribute,
                allowed_roles,
                condition,
            })
        }
        ["restrict", "rows", table] => {
            let w = when.ok_or_else(|| err("restrict rows requires 'when <condition>'".into()))?;
            Ok(PlaRule::RowRestriction {
                table: table.to_string(),
                condition: parse_condition(w)?,
            })
        }
        ["require", "aggregation", table, "min", k] => {
            let min_group_size: usize = k
                .parse()
                .map_err(|_| err(format!("bad group size {k:?}")))?;
            if min_group_size == 0 {
                return Err(err("minimum group size must be at least 1".into()));
            }
            Ok(PlaRule::AggregationThreshold {
                table: table.to_string(),
                min_group_size,
            })
        }
        ["anonymize", attr, "with", rest @ ..] => {
            let attribute = parse_attr(attr, line)?;
            let method = match rest {
                ["suppress"] => AnonMethod::Suppress,
                ["pseudonym"] => AnonMethod::Pseudonymize,
                ["generalize", l] => AnonMethod::Generalize {
                    level: l.parse().map_err(|_| err(format!("bad level {l:?}")))?,
                },
                ["noise", s] => AnonMethod::Noise {
                    scale: s.parse().map_err(|_| err(format!("bad scale {s:?}")))?,
                },
                other => return Err(err(format!("unknown anonymization method {other:?}"))),
            };
            if let AnonMethod::Noise { scale } = method {
                if scale <= 0.0 {
                    return Err(err("noise scale must be positive".into()));
                }
            }
            Ok(PlaRule::Anonymize { attribute, method })
        }
        [verb @ ("allow" | "forbid"), "join", a, "with", b] => Ok(PlaRule::JoinPermission {
            left_source: (*a).into(),
            right_source: (*b).into(),
            allowed: *verb == "allow",
        }),
        [verb @ ("allow" | "forbid"), "integration", "by", s] => {
            Ok(PlaRule::IntegrationPermission {
                source: (*s).into(),
                allowed: *verb == "allow",
            })
        }
        ["retain", attr, "for", days, "days"] => {
            let a = parse_attr(attr, line)?;
            let max_age_days: i64 = days
                .parse()
                .map_err(|_| err(format!("bad day count {days:?}")))?;
            if max_age_days <= 0 {
                return Err(err("retention must be a positive number of days".into()));
            }
            Ok(PlaRule::Retention {
                table: a.table,
                date_attribute: a.column,
                max_age_days,
            })
        }
        ["purpose", purposes @ ..] => {
            let allowed: BTreeSet<String> = purposes
                .join(" ")
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            if allowed.is_empty() {
                return Err(err("expected at least one purpose".into()));
            }
            Ok(PlaRule::Purpose { allowed })
        }
        other => Err(err(format!("unrecognized statement: {}", other.join(" ")))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
# Hospital's agreement (elicited on the drug-consumption meta-report).
pla "hospital-2008" source hospital version 2 level meta-report {
  allow attribute Prescriptions.Doctor to analyst, auditor when Disease <> 'HIV';
  restrict rows Prescriptions when Patient <> 'Math';
  require aggregation Prescriptions min 5;
  anonymize Prescriptions.Patient with pseudonym;
  anonymize Prescriptions.Date with generalize 2;
  anonymize DrugCost.Cost with noise 5.5;
  anonymize Prescriptions.Disease with suppress;
  forbid join hospital with laboratory;
  allow join hospital with municipality;
  forbid integration by laboratory;
  retain Prescriptions.Date for 730 days;
  purpose reimbursement, quality;
}
"#;

    #[test]
    fn parses_the_full_example() {
        let doc = parse_document(DOC).unwrap();
        assert_eq!(doc.id.as_str(), "hospital-2008");
        assert_eq!(doc.source.as_str(), "hospital");
        assert_eq!(doc.version, 2);
        assert_eq!(doc.level, PlaLevel::MetaReport);
        assert_eq!(doc.rules.len(), 12);
        match &doc.rules[0] {
            PlaRule::AttributeAccess {
                attribute,
                allowed_roles,
                condition,
            } => {
                assert_eq!(attribute, &AttrRef::new("Prescriptions", "Doctor"));
                assert_eq!(allowed_roles.len(), 2);
                assert_eq!(condition.as_ref().unwrap().to_string(), "Disease <> 'HIV'");
            }
            other => panic!("wrong rule: {other:?}"),
        }
        match &doc.rules[5] {
            PlaRule::Anonymize {
                method: AnonMethod::Noise { scale },
                ..
            } => {
                assert_eq!(*scale, 5.5)
            }
            other => panic!("wrong rule: {other:?}"),
        }
    }

    #[test]
    fn print_parse_roundtrip() {
        let doc = parse_document(DOC).unwrap();
        let printed = doc.to_string();
        let reparsed = parse_document(&printed).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn multiple_documents() {
        let two = format!("{DOC}\n\npla \"lab-1\" source laboratory version 1 level source {{\n  purpose quality;\n}}\n");
        let docs = parse_documents(&two).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].source.as_str(), "laboratory");
        assert!(
            parse_document(&two).is_err(),
            "parse_document wants exactly one"
        );
    }

    #[test]
    fn comments_and_quotes() {
        let text = "pla \"x\" source s version 1 level report {\n  restrict rows T when name <> 'a#b'; # trailing comment\n}";
        let doc = parse_document(text).unwrap();
        match &doc.rules[0] {
            PlaRule::RowRestriction { condition, .. } => {
                assert_eq!(condition.to_string(), "name <> 'a#b'")
            }
            other => panic!("wrong rule: {other:?}"),
        }
    }

    #[test]
    fn error_positions_and_messages() {
        let bad = "pla \"x\" source s version 1 level report {\n  frobnicate the data;\n}";
        let e = parse_document(bad).unwrap_err();
        match e {
            PlaError::Parse { message, line } => {
                assert!(message.contains("unrecognized"));
                assert_eq!(line, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(
            parse_document("pla x source s version 1 level report {}").is_err(),
            "unquoted id"
        );
        assert!(parse_document("pla \"x\" source s version 1 level nowhere {}").is_err());
        assert!(
            parse_document("pla \"x\" source s version 1 level report {").is_err(),
            "no close"
        );
        assert!(parse_document(
            "pla \"x\" source s version 1 level report { require aggregation T min 0; }"
        )
        .is_err());
        assert!(parse_document(
            "pla \"x\" source s version 1 level report { retain T.d for -3 days; }"
        )
        .is_err());
        assert!(
            parse_document("pla \"x\" source s version 1 level report { restrict rows T; }")
                .is_err(),
            "restrict needs when"
        );
        assert!(parse_document(
            "pla \"x\" source s version 1 level report { anonymize T.c with rot13; }"
        )
        .is_err());
    }

    #[test]
    fn bad_condition_reports_condition_error() {
        let text = "pla \"x\" source s version 1 level report {\n  restrict rows T when a = ;\n}";
        assert!(matches!(
            parse_document(text),
            Err(PlaError::Condition { .. })
        ));
    }

    /// Regression: a non-ASCII character inside a `when` condition used
    /// to panic in the expression lexer. It is now a typed condition
    /// error (or, for Unicode letters, an ordinary identifier).
    #[test]
    fn non_ascii_condition_is_a_typed_error() {
        let text = "pla \"x\" source s version 1 level report {\n  restrict rows T when Dis£ase <> 'HIV';\n}";
        assert!(matches!(
            parse_documents(text),
            Err(PlaError::Condition { .. })
        ));
        let text =
            "pla \"x\" source s version 1 level report {\n  restrict rows T when naïve = 1;\n}";
        assert_eq!(parse_documents(text).unwrap().len(), 1);
    }
}
