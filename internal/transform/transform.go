// Package transform implements GALO's transformation engine: the component
// that maps query execution plans (QGMs) into RDF graphs, and plan fragments
// into the SPARQL queries used to probe the knowledge base (Figure 6 of the
// paper). It is the bridge between the relational world (internal/qgm) and
// the semantic-web world (internal/rdf, internal/sparql) the knowledge base
// lives in.
package transform

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"galo/internal/qgm"
	"galo/internal/rdf"
)

// Namespaces used by GALO's RDF encoding, following the IRIs shown in the
// paper.
const (
	PropBase   = "http://galo/qep/property/"
	KBPopBase  = "http://galo/kb/pop/"
	KBTmplBase = "http://galo/kb/template/"
)

// Property names.
const (
	PropPopType           = "hasPopType"
	PropEstCardinality    = "hasEstimateCardinality"
	PropActCardinality    = "hasActualCardinality"
	PropLowerCardinality  = "hasLowerCardinality"
	PropHigherCardinality = "hasHigherCardinality"
	PropRowSize           = "hasRowSize"
	PropPages             = "hasPages"
	PropTableName         = "hasTableName"
	PropTableInstance     = "hasTableInstance"
	PropCanonicalTable    = "hasCanonicalTable"
	PropIndexName         = "hasIndexName"
	PropBloomFilter       = "hasBloomFilter"
	PropOutputStream      = "hasOutputStream"
	PropOuterInput        = "hasOuterInputStream"
	PropInnerInput        = "hasInnerInputStream"
	PropInTemplate        = "inTemplate"
	PropGuideline         = "hasGuideline"
	PropImprovement       = "hasImprovement"
	PropSourceQuery       = "hasSourceQuery"
	PropSourceWorkload    = "hasSourceWorkload"
	PropStructural        = "hasStructuralRewrite"
	PropJoinCount         = "hasJoinCount"
	PropSignature         = "hasSignature"
)

// Prop returns the IRI term of a property.
func Prop(name string) rdf.Term { return rdf.NewIRI(PropBase + name) }

// KBPopIRI returns the resource IRI of an operator belonging to a knowledge
// base template.
func KBPopIRI(templateID string, opID int) rdf.Term {
	return rdf.NewIRI(KBPopBase + templateID + "/" + strconv.Itoa(opID))
}

// TemplateIRI returns the resource IRI of a knowledge base template.
func TemplateIRI(id string) rdf.Term { return rdf.NewIRI(KBTmplBase + id) }

// CanonicalLabels assigns canonical table labels (TABLE_1, TABLE_2, ...) to
// the table instances of a plan fragment, in sorted instance order. This is
// the abstraction step of Section 3.2: templates never store concrete table
// names, so that patterns learned over one workload apply to others.
func CanonicalLabels(fragment *qgm.Node) map[string]string {
	instances := make([]string, 0)
	seen := map[string]bool{}
	fragment.Walk(func(n *qgm.Node) {
		if n.TableInstance != "" && !seen[n.TableInstance] {
			seen[n.TableInstance] = true
			instances = append(instances, n.TableInstance)
		}
	})
	sort.Strings(instances)
	out := make(map[string]string, len(instances))
	for i, inst := range instances {
		out[inst] = fmt.Sprintf("TABLE_%d", i+1)
	}
	return out
}

// Abstract clones the fragment and replaces table names, instances and index
// names with canonical labels according to the given mapping, clearing
// per-query predicate text. The result is what gets stored in a knowledge
// base template.
func Abstract(fragment *qgm.Node, labels map[string]string) *qgm.Node {
	clone := fragment.Clone()
	clone.Walk(func(n *qgm.Node) {
		if n.TableInstance != "" {
			label := labels[n.TableInstance]
			if label == "" {
				label = "TABLE_X"
			}
			if n.Index != "" {
				n.Index = "INDEX_" + strings.TrimPrefix(label, "TABLE_")
			}
			n.Table = label
			n.TableInstance = label
		}
		n.Predicates = nil
		n.JoinCols = nil
	})
	return clone
}
