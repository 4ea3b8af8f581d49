//! A minimal YAML-subset parser for TeAAL specifications.
//!
//! TeAAL specs (Figs. 3, 5, 8 of the paper) are written in YAML. The
//! offline dependency allowlist has no YAML crate, so this module
//! implements exactly the subset those specs use: indentation-nested maps,
//! block sequences (`- item`), inline sequences (`[a, b]`), scalar values,
//! and `#` comments. Keys may contain parentheses and commas
//! (`(K, M):` — tuple partitioning targets), and values may contain
//! brackets (`T[k, m] = A[k, m] * B[k, n]` — Einsum expressions).

use std::fmt;

/// A parsed YAML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Yaml {
    /// Absent / empty value.
    Null,
    /// A scalar kept as its source text (callers coerce as needed).
    Scalar(String),
    /// A sequence (`- a` block items or `[a, b]` inline).
    Seq(Vec<Yaml>),
    /// A mapping; insertion order is preserved (TeAAL partitioning
    /// directives are order-sensitive).
    Map(Vec<(String, Yaml)>),
}

impl Yaml {
    /// Looks up a key in a map.
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The map entries, if this is a map.
    pub fn entries(&self) -> Option<&[(String, Yaml)]> {
        match self {
            Yaml::Map(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The sequence items, if this is a sequence.
    pub fn items(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The scalar text, if this is a scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Parses the scalar as an unsigned integer (accepts `_` separators).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_str()?.replace('_', "").parse().ok()
    }

    /// Parses the scalar as a float.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_str()?.replace('_', "").parse().ok()
    }

    /// Parses the scalar as a boolean (`true`/`false`).
    pub fn as_bool(&self) -> Option<bool> {
        match self.as_str()? {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// Coerces to a list of strings: either an inline/block sequence of
    /// scalars or a single scalar (treated as a one-element list).
    pub fn as_str_list(&self) -> Option<Vec<String>> {
        match self {
            Yaml::Seq(items) => items
                .iter()
                .map(|i| i.as_str().map(str::to_string))
                .collect(),
            Yaml::Scalar(s) => Some(vec![s.clone()]),
            _ => None,
        }
    }
}

/// A parse error with a 1-based source line number.
#[derive(Clone, Debug, PartialEq)]
pub struct YamlError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "yaml parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for YamlError {}

/// The deepest nesting of blocks and inline sequences a document may
/// use. The parser recurses once per level, so an unbounded depth would
/// let one hostile spec (say `einsum: ` and 200 000 `[`) overflow the
/// stack and abort the process. The catalog specs nest at most 7 deep.
pub const MAX_NESTING: usize = 64;

/// The error for a value that would nest deeper than [`MAX_NESTING`].
fn too_deep(line: usize) -> YamlError {
    YamlError {
        line,
        message: format!("nesting deeper than {MAX_NESTING} levels"),
    }
}

struct Line {
    number: usize,
    indent: usize,
    text: String,
}

/// Parses a YAML-subset document.
///
/// # Errors
///
/// Returns a [`YamlError`] with the offending line on malformed input
/// (tabs in indentation, inconsistent nesting, unterminated inline lists,
/// nesting deeper than [`MAX_NESTING`]).
pub fn parse(source: &str) -> Result<Yaml, YamlError> {
    let lines = preprocess(source)?;
    if lines.is_empty() {
        return Ok(Yaml::Null);
    }
    let mut pos = 0usize;
    let root = parse_block(&lines, &mut pos, lines[0].indent, 0)?;
    if pos < lines.len() {
        return Err(YamlError {
            line: lines[pos].number,
            message: "content after top-level block (indentation decreased below the root?)"
                .to_string(),
        });
    }
    Ok(root)
}

fn preprocess(source: &str) -> Result<Vec<Line>, YamlError> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let number = i + 1;
        let without_comment = strip_comment(raw);
        let trimmed_end = without_comment.trim_end();
        if trimmed_end.trim().is_empty() {
            continue;
        }
        let indent_str: String = trimmed_end
            .chars()
            .take_while(|c| *c == ' ' || *c == '\t')
            .collect();
        if indent_str.contains('\t') {
            return Err(YamlError {
                line: number,
                message: "tabs are not allowed in indentation".into(),
            });
        }
        out.push(Line {
            number,
            indent: indent_str.len(),
            text: trimmed_end.trim_start().to_string(),
        });
    }
    Ok(out)
}

/// Strips a trailing `# comment`. A `#` only starts a comment at the
/// beginning of the line or after whitespace, so values like `A#B` survive.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' && (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') {
            return &line[..i];
        }
    }
    line
}

/// Parses the block starting at `lines[*pos]`, `depth` levels below the
/// document root.
fn parse_block(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let first = &lines[*pos];
    if depth >= MAX_NESTING {
        return Err(too_deep(first.number));
    }
    if first.text.starts_with("- ") || first.text == "-" {
        parse_seq(lines, pos, indent, depth)
    } else {
        parse_map(lines, pos, indent, depth)
    }
}

fn parse_seq(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(YamlError {
                line: line.number,
                message: format!(
                    "unexpected indent {} inside sequence at {}",
                    line.indent, indent
                ),
            });
        }
        if !(line.text.starts_with("- ") || line.text == "-") {
            break; // a sibling map key ends the sequence
        }
        let rest = line
            .text
            .strip_prefix('-')
            .expect("checked prefix")
            .trim_start();
        let item_indent = line.indent + 2;
        if rest.is_empty() {
            *pos += 1;
            if *pos < lines.len() && lines[*pos].indent > line.indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent, depth + 1)?);
            } else {
                items.push(Yaml::Null);
            }
        } else if let Some((key, value)) = split_key(rest) {
            // `- key: value` starts a map item; lines indented to the first
            // key's column extend the same map.
            *pos += 1;
            let first_val = if value.is_empty() {
                if *pos < lines.len() && lines[*pos].indent > item_indent {
                    let child_indent = lines[*pos].indent;
                    parse_block(lines, pos, child_indent, depth + 1)?
                } else {
                    Yaml::Null
                }
            } else {
                parse_inline_value(value, line.number, depth + 1)?
            };
            let mut pairs = vec![(key, first_val)];
            while *pos < lines.len()
                && lines[*pos].indent == item_indent
                && !(lines[*pos].text.starts_with("- ") || lines[*pos].text == "-")
            {
                let sub = parse_map(lines, pos, item_indent, depth)?;
                if let Yaml::Map(mut more) = sub {
                    pairs.append(&mut more);
                }
            }
            items.push(Yaml::Map(pairs));
        } else {
            items.push(parse_inline_value(rest, line.number, depth + 1)?);
            *pos += 1;
        }
    }
    Ok(Yaml::Seq(items))
}

fn parse_map(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut pairs: Vec<(String, Yaml)> = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent {
            break;
        }
        if line.text.starts_with("- ") || line.text == "-" {
            break;
        }
        let Some((key, value)) = split_key(&line.text) else {
            return Err(YamlError {
                line: line.number,
                message: format!("expected `key: value`, got {:?}", line.text),
            });
        };
        if value.is_empty() {
            *pos += 1;
            if *pos < lines.len()
                && (lines[*pos].indent > indent
                    || (lines[*pos].indent == indent
                        && (lines[*pos].text.starts_with("- ") || lines[*pos].text == "-")))
            {
                let child_indent = lines[*pos].indent;
                pairs.push((key, parse_block(lines, pos, child_indent, depth + 1)?));
            } else {
                pairs.push((key, Yaml::Null));
            }
        } else {
            pairs.push((key, parse_inline_value(value, line.number, depth + 1)?));
            *pos += 1;
        }
    }
    Ok(Yaml::Map(pairs))
}

/// Splits `key: value` at the first `:` that is followed by a space or ends
/// the line. Returns `None` when the line has no such separator.
fn split_key(text: &str) -> Option<(String, &str)> {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b':' && (i + 1 == bytes.len() || bytes[i + 1] == b' ') {
            let key = text[..i].trim().to_string();
            let value = text[i + 1..].trim();
            return Some((key, value));
        }
    }
    None
}

/// Parses an inline value `depth` levels below the document root.
fn parse_inline_value(text: &str, line: usize, depth: usize) -> Result<Yaml, YamlError> {
    let t = text.trim();
    if t.is_empty() {
        return Ok(Yaml::Null);
    }
    if t.starts_with('[') {
        if depth >= MAX_NESTING {
            return Err(too_deep(line));
        }
        let Some(inner) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
            return Err(YamlError {
                line,
                message: format!("unterminated inline sequence `{t}`"),
            });
        };
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let p = part.trim();
            if !p.is_empty() {
                items.push(parse_inline_value(p, line, depth + 1)?);
            }
        }
        return Ok(Yaml::Seq(items));
    }
    let unquoted = t
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .or_else(|| t.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')))
        .unwrap_or(t);
    Ok(Yaml::Scalar(unquoted.to_string()))
}

/// Splits on commas that are not nested inside brackets or parentheses,
/// so `[uniform_occupancy(A.256), flatten()]` splits correctly.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' | '(' => depth += 1,
            ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_maps_and_inline_lists() {
        let doc = parse("einsum:\n  declaration:\n    A: [K, M]\n    B: [K, N]\n").unwrap();
        let a = doc
            .get("einsum")
            .unwrap()
            .get("declaration")
            .unwrap()
            .get("A")
            .unwrap();
        assert_eq!(a.as_str_list().unwrap(), vec!["K", "M"]);
    }

    #[test]
    fn parses_block_sequences_of_expressions() {
        let doc = parse(concat!(
            "expressions:\n",
            "  - T[k, m, n] = A[k, m] * B[k, n]\n",
            "  - Z[m, n] = T[k, m, n]\n",
        ))
        .unwrap();
        let exprs = doc.get("expressions").unwrap().items().unwrap();
        assert_eq!(exprs.len(), 2);
        assert_eq!(exprs[0].as_str().unwrap(), "T[k, m, n] = A[k, m] * B[k, n]");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let doc = parse("a: 1 # trailing\n\n# full line\nb: 2\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn tuple_keys_survive() {
        let doc = parse("partitioning:\n  T:\n    (K, M): [flatten()]\n").unwrap();
        let t = doc.get("partitioning").unwrap().get("T").unwrap();
        let entry = &t.entries().unwrap()[0];
        assert_eq!(entry.0, "(K, M)");
        assert_eq!(entry.1.items().unwrap()[0].as_str().unwrap(), "flatten()");
    }

    #[test]
    fn nested_calls_in_inline_lists_split_correctly() {
        let doc = parse("KM: [uniform_occupancy(A.256), uniform_occupancy(A.16)]\n").unwrap();
        let items = doc.get("KM").unwrap().items().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].as_str().unwrap(), "uniform_occupancy(A.16)");
    }

    #[test]
    fn block_sequence_of_maps() {
        let doc = parse(concat!(
            "components:\n",
            "  - name: HBM\n",
            "    class: DRAM\n",
            "    bandwidth: 128\n",
            "  - name: ALU\n",
            "    class: Compute\n",
        ))
        .unwrap();
        let comps = doc.get("components").unwrap().items().unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].get("class").unwrap().as_str(), Some("DRAM"));
        assert_eq!(comps[1].get("name").unwrap().as_str(), Some("ALU"));
    }

    #[test]
    fn deeply_nested_structures() {
        let doc = parse(concat!(
            "arch:\n",
            "  System:\n",
            "    local:\n",
            "      - name: DRAM\n",
            "    subtree:\n",
            "      - name: PE\n",
            "        count: 16\n",
            "        local:\n",
            "          - name: ALU\n",
        ))
        .unwrap();
        let sys = doc.get("arch").unwrap().get("System").unwrap();
        let pe = &sys.get("subtree").unwrap().items().unwrap()[0];
        assert_eq!(pe.get("count").unwrap().as_u64(), Some(16));
        let alu = &pe.get("local").unwrap().items().unwrap()[0];
        assert_eq!(alu.get("name").unwrap().as_str(), Some("ALU"));
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let flow = |n: usize| format!("einsum: {}{}\n", "[".repeat(n), "]".repeat(n));
        assert!(parse(&flow(MAX_NESTING - 1)).is_ok());
        assert!(parse(&flow(MAX_NESTING)).is_err());
        // Far past any stack: rejected before recursing, not overflowed.
        let err = parse(&flow(200_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let block = |n: usize| -> String {
            (0..n)
                .map(|i| format!("{}k{i}:\n", " ".repeat(i)))
                .collect()
        };
        assert!(parse(&block(MAX_NESTING)).is_ok());
        let err = parse(&block(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.line, MAX_NESTING + 1);
    }

    #[test]
    fn scalar_coercions() {
        let doc = parse("a: 1_000\nb: 2.5\nc: true\nd: hello\n").unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("d").unwrap().as_u64(), None);
    }

    #[test]
    fn tabs_in_indentation_are_rejected() {
        let err = parse("a:\n\tb: 1\n").unwrap_err();
        assert!(err.to_string().contains("tabs"));
    }

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse("").unwrap(), Yaml::Null);
        assert_eq!(parse("# only a comment\n").unwrap(), Yaml::Null);
    }

    #[test]
    fn full_outerspace_spec_parses() {
        // Fig. 3 of the paper, verbatim structure.
        let doc = parse(concat!(
            "einsum:\n",
            "  declaration: # Ranks are listed alphabetically\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [K, M, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - T[k, m, n] = A[k, m] * B[k, n]\n",
            "    - Z[m, n] = T[k, m, n]\n",
            "mapping:\n",
            "  rank-order:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [M, K, N]\n",
            "    Z: [M, N]\n",
            "  partitioning:\n",
            "    T:\n",
            "      (K, M): [flatten()]\n",
            "      KM: [uniform_occupancy(A.256), uniform_occupancy(A.16)]\n",
            "    Z:\n",
            "      M: [uniform_occupancy(T.128), uniform_occupancy(T.8)]\n",
            "  loop-order:\n",
            "    T: [KM2, KM1, KM0, N]\n",
            "    Z: [M2, M1, M0, N, K]\n",
            "  spacetime:\n",
            "    T:\n",
            "      space: [KM1, KM0]\n",
            "      time: [KM2, N]\n",
            "    Z:\n",
            "      space: [M1, M0]\n",
            "      time: [M2, N, K]\n",
        ))
        .unwrap();
        let lo = doc.get("mapping").unwrap().get("loop-order").unwrap();
        assert_eq!(
            lo.get("Z").unwrap().as_str_list().unwrap(),
            vec!["M2", "M1", "M0", "N", "K"]
        );
        let st = doc
            .get("mapping")
            .unwrap()
            .get("spacetime")
            .unwrap()
            .get("T")
            .unwrap();
        assert_eq!(
            st.get("space").unwrap().as_str_list().unwrap(),
            vec!["KM1", "KM0"]
        );
    }
}
