package guideline

import (
	"encoding/xml"
	"reflect"
	"strings"
	"testing"
)

// refDocument and refElement are the reference renderer Document.XML is held
// to: the MarshalXML methods the package had before XML became an append
// renderer, run through an encoding/xml Encoder indenting by two spaces.
type refDocument Document
type refElement Element

func (d *refDocument) MarshalXML(enc *xml.Encoder, _ xml.StartElement) error {
	start := xml.StartElement{Name: xml.Name{Local: "OPTGUIDELINES"}}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	for _, g := range d.Guidelines {
		if err := (*refElement)(g).MarshalXML(enc, xml.StartElement{}); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

func (e *refElement) MarshalXML(enc *xml.Encoder, _ xml.StartElement) error {
	start := xml.StartElement{Name: xml.Name{Local: e.Op}}
	if e.TabID != "" {
		start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: "TABID"}, Value: e.TabID})
	}
	if e.Table != "" {
		start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: "TABLE"}, Value: e.Table})
	}
	if e.Index != "" {
		start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: "INDEX"}, Value: `"` + e.Index + `"`})
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	for _, c := range e.Children {
		if err := (*refElement)(c).MarshalXML(enc, xml.StartElement{}); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

func referenceXML(d *Document) (string, error) {
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	enc.Indent("", "  ")
	if err := enc.Encode((*refDocument)(d)); err != nil {
		return "", err
	}
	if err := enc.Flush(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// checkAgainstReference fails unless d renders exactly as the reference
// renderer renders it, errors included.
func checkAgainstReference(t *testing.T, d *Document) string {
	t.Helper()
	got, err := d.XML()
	want, wantErr := referenceXML(d)
	if got != want || (err == nil) != (wantErr == nil) {
		t.Fatalf("XML() = %q, %v\nreference %q, %v", got, err, want, wantErr)
	}
	return got
}

// TestXMLMatchesReference covers what Parse cannot produce: the nil and the
// empty document, an operator no guideline has, an element without one, and
// attribute values only a caller could write.
func TestXMLMatchesReference(t *testing.T) {
	if got := checkAgainstReference(t, &Document{}); got != "<OPTGUIDELINES></OPTGUIDELINES>" {
		t.Errorf("empty document renders as %q", got)
	}
	checkAgainstReference(t, nil)
	checkAgainstReference(t, figure5Document())
	odd := figure5Document()
	odd.Add(&Element{Op: "MYSTERY", TabID: "a\"b'c&d<e>f\tg\nh\ri\x00j\xffk é", Table: "T", Index: `"`})
	checkAgainstReference(t, odd)
	odd.Add(&Element{Op: ElemHSJOIN, Children: []*Element{{Op: ElemTBSCAN, TabID: "Q1"}, {TabID: "Q2"}}})
	checkAgainstReference(t, odd)
}

// FuzzGuidelineRoundTrip: whatever Parse accepts renders exactly as the
// reference renderer renders it, and parses back to an equal document.
func FuzzGuidelineRoundTrip(f *testing.F) {
	for _, text := range []string{
		"<OPTGUIDELINES></OPTGUIDELINES>",
		"<OPTGUIDELINES/>",
		`<?xml version="1.0"?><!-- c --><optguidelines><hsjoin><tbscan tabid="Q1"/><ixscan TABID='Q2' INDEX='"I"'/></hsjoin></optguidelines>`,
		`<OPTGUIDELINES><TBSCAN TABLE="a&amp;b&#9;c&#xA;" TABID='"Q1"'/><IXSCAN TABID="&lt;&gt;&quot;&apos;"/></OPTGUIDELINES>`,
		`<OPTGUIDELINES><NLJOIN><MSJOIN><TBSCAN TABID='Q1'/><TBSCAN TABID='Q2'/></MSJOIN><x:TBSCAN y:TABID='Q3' TABID='Q4'/></NLJOIN></OPTGUIDELINES> trailing`,
		`<OPTGUIDELINES>
		  <HSJOIN>
		    <HSJOIN>
		      <TBSCAN TABID='Q2'/>
		      <HSJOIN>
		        <TBSCAN TABID='Q4'/>
		        <TBSCAN TABID='Q1'/>
		      </HSJOIN>
		    </HSJOIN>
		    <IXSCAN TABID='Q3' INDEX='"D_DATE_SK"'/>
		  </HSJOIN>
		</OPTGUIDELINES>`,
		"<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
		"<NOTGUIDELINES/>",
		"<OPTGUIDELINES><HSJOIN>",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := Parse(text)
		if err != nil {
			return
		}
		rendered := checkAgainstReference(t, d)
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", text, rendered, err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("%q renders as %q, which parses to another document", text, rendered)
		}
	})
}
