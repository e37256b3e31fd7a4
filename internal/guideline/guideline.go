// Package guideline implements DB2-style optimization guideline documents
// (the <OPTGUIDELINES> XML dialect shown in Figure 5 of the paper).
//
// A guideline is a partial specification of the plan the optimizer should
// build: join methods, join order (the order of child elements — outer first,
// inner second) and access methods, referencing table instances by TABID or
// tables by name. A guideline is a strong suggestion, not a command: the
// optimizer drops guidelines that become inapplicable (see
// internal/optimizer).
package guideline

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Element kinds. Join elements have exactly two children (outer, inner);
// access elements are leaves.
const (
	ElemHSJOIN = "HSJOIN"
	ElemMSJOIN = "MSJOIN"
	ElemNLJOIN = "NLJOIN"
	ElemTBSCAN = "TBSCAN"
	ElemIXSCAN = "IXSCAN"
)

// Element is one node of the guideline tree.
type Element struct {
	// Op is one of the Elem* constants.
	Op string
	// TabID references a table instance (query qualifier such as Q2).
	TabID string
	// Table references a table by fully qualified name (alternative to TabID).
	Table string
	// Index optionally names the index an IXSCAN should use.
	Index string
	// Children holds the join inputs: Children[0] is the outer input,
	// Children[1] the inner input. Access elements have no children.
	Children []*Element
}

// IsJoin reports whether the element specifies a join method.
func (e *Element) IsJoin() bool {
	return e.Op == ElemHSJOIN || e.Op == ElemMSJOIN || e.Op == ElemNLJOIN
}

// IsAccess reports whether the element specifies a table access method.
func (e *Element) IsAccess() bool {
	return e.Op == ElemTBSCAN || e.Op == ElemIXSCAN
}

func (e *Element) walk(fn func(*Element)) {
	if e == nil {
		return
	}
	fn(e)
	for _, c := range e.Children {
		c.walk(fn)
	}
}

// Validate checks the structural rules of the guideline dialect.
func (e *Element) Validate() error {
	var err error
	e.walk(func(x *Element) {
		if err != nil {
			return
		}
		switch {
		case x.IsJoin():
			if len(x.Children) != 2 {
				err = fmt.Errorf("guideline: %s element must have exactly two children, has %d", x.Op, len(x.Children))
			}
		case x.IsAccess():
			if len(x.Children) != 0 {
				err = fmt.Errorf("guideline: %s element must be a leaf", x.Op)
			}
			if x.TabID == "" && x.Table == "" {
				err = fmt.Errorf("guideline: %s element needs a TABID or TABLE attribute", x.Op)
			}
		default:
			err = fmt.Errorf("guideline: unknown element %q", x.Op)
		}
	})
	return err
}

// Document is a complete OPTGUIDELINES document: a list of independent
// guideline trees, each constraining part of the plan.
type Document struct {
	Guidelines []*Element
}

// Empty reports whether the document carries no guidelines.
func (d *Document) Empty() bool { return d == nil || len(d.Guidelines) == 0 }

// Add appends a guideline tree to the document.
func (d *Document) Add(e *Element) { d.Guidelines = append(d.Guidelines, e) }

// Validate validates every guideline in the document.
func (d *Document) Validate() error {
	if d == nil {
		return nil
	}
	for i, g := range d.Guidelines {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("guideline %d: %w", i, err)
		}
	}
	return nil
}

// --- XML ----------------------------------------------------------------------

// XML renders the document as indented XML, byte for byte what an
// encoding/xml Encoder indenting by two spaces writes for it: a leaf closes on
// its own line, attribute values are escaped by xml.EscapeText, and an empty
// document is <OPTGUIDELINES></OPTGUIDELINES>.
func (d *Document) XML() (string, error) {
	if d == nil {
		return "", nil
	}
	b := append(make([]byte, 0, 256), "<OPTGUIDELINES>"...)
	for _, g := range d.Guidelines {
		var err error
		if b, err = appendElement(b, g, 1); err != nil {
			return "", err
		}
	}
	if len(d.Guidelines) > 0 {
		b = append(b, '\n')
	}
	return string(append(b, "</OPTGUIDELINES>"...)), nil
}

// appendElement appends the element, named by its operator, on a new line
// indented by depth.
func appendElement(b []byte, e *Element, depth int) ([]byte, error) {
	if e.Op == "" {
		return nil, errors.New("xml: start tag with no name")
	}
	newline := func(b []byte) []byte {
		b = append(b, '\n')
		for range depth {
			b = append(b, "  "...)
		}
		return b
	}
	b = append(append(newline(b), '<'), e.Op...)
	b = appendAttr(appendAttr(appendAttr(b, "TABID", "", e.TabID), "TABLE", "", e.Table), "INDEX", "&#34;", e.Index)
	b = append(b, '>')
	for _, c := range e.Children {
		var err error
		if b, err = appendElement(b, c, depth+1); err != nil {
			return nil, err
		}
	}
	if len(e.Children) > 0 {
		b = newline(b)
	}
	return append(append(append(b, "</"...), e.Op...), '>'), nil
}

// appendAttr appends name="value" unless value is empty, the value escaped and
// wrapped in quote (itself already escaped).
func appendAttr(b []byte, name, quote, value string) []byte {
	if value == "" {
		return b
	}
	b = append(append(append(append(b, ' '), name...), `="`...), quote...)
	plain := true
	for i := 0; plain && i < len(value); i++ {
		c := value[i]
		plain = c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>'
	}
	if plain {
		b = append(b, value...)
	} else {
		w := bytes.NewBuffer(b)
		_ = xml.EscapeText(w, []byte(value)) // a bytes.Buffer never fails a write
		b = w.Bytes()
	}
	return append(append(b, quote...), '"')
}

// Parse decodes an OPTGUIDELINES document from XML text.
func Parse(s string) (*Document, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("guideline: no OPTGUIDELINES element found")
		}
		if err != nil {
			return nil, err
		}
		if start, ok := tok.(xml.StartElement); ok {
			if !strings.EqualFold(start.Name.Local, "OPTGUIDELINES") {
				return nil, fmt.Errorf("guideline: expected OPTGUIDELINES root, got %s", start.Name.Local)
			}
			d := &Document{}
			if d.Guidelines, err = readElements(dec); err != nil {
				return nil, err
			}
			if err := d.Validate(); err != nil {
				return nil, err
			}
			return d, nil
		}
	}
}

// readElements decodes the elements up to the end tag of their parent: each
// named by its operator, with its TABID, TABLE and INDEX attributes (quotes
// around a value dropped) and its children.
func readElements(dec *xml.Decoder) ([]*Element, error) {
	var out []*Element
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := &Element{Op: strings.ToUpper(t.Name.Local)}
			for _, a := range t.Attr {
				v := strings.Trim(a.Value, `"`)
				switch strings.ToUpper(a.Name.Local) {
				case "TABID":
					e.TabID = v
				case "TABLE":
					e.Table = v
				case "INDEX":
					e.Index = v
				}
			}
			if e.Children, err = readElements(dec); err != nil {
				return nil, err
			}
			out = append(out, e)
		case xml.EndElement:
			return out, nil
		}
	}
}

// Clone returns a deep copy of the element tree.
func (e *Element) Clone() *Element {
	cp := *e
	if e.Children != nil {
		cp.Children = make([]*Element, len(e.Children))
		for i, c := range e.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Merge combines several documents into one, de-duplicating guidelines whose
// rendered XML is identical (one that cannot render is always kept).
func Merge(docs ...*Document) *Document {
	out := &Document{}
	seen := map[string]bool{}
	for _, d := range docs {
		if d == nil {
			continue
		}
		for _, g := range d.Guidelines {
			key, err := appendElement(nil, g, 0)
			if err == nil && seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			out.Add(g)
		}
	}
	return out
}
