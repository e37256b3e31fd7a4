package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF    tokKind = iota
	tIdent          // keyword or prefixed name (predURI:hasPopType)
	tVar            // ?name
	tIRI            // <http://...>
	tString         // "..." or '...'
	tNumber         // 123 or 1.5
	tPunct          // { } ( ) . / + , *
	tOp             // <= >= < > = != && ||
)

type tok struct {
	kind tokKind
	text string
	pos  int
}

type lexState struct {
	in   string
	pos  int
	toks []tok
}

func lexQuery(in string) ([]tok, error) {
	l := &lexState{in: in}
	for l.pos < len(l.in) {
		ch := l.in[l.pos]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.pos++
		case ch == '#':
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
		case ch == '?' || ch == '$':
			start := l.pos
			l.pos++
			for l.pos < len(l.in) && isNamePart(rune(l.in[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, tok{tVar, l.in[start+1 : l.pos], start})
		case ch == '<':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
				l.toks = append(l.toks, tok{tOp, "<=", l.pos})
				l.pos += 2
				continue
			}
			// IRI reference if a '>' appears before whitespace.
			end := -1
			for i := l.pos + 1; i < len(l.in); i++ {
				if l.in[i] == '>' {
					end = i
					break
				}
				if l.in[i] == ' ' || l.in[i] == '\n' || l.in[i] == '\t' {
					break
				}
			}
			if end > 0 {
				l.toks = append(l.toks, tok{tIRI, l.in[l.pos+1 : end], l.pos})
				l.pos = end + 1
			} else {
				l.toks = append(l.toks, tok{tOp, "<", l.pos})
				l.pos++
			}
		case ch == '>':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
				l.toks = append(l.toks, tok{tOp, ">=", l.pos})
				l.pos += 2
			} else {
				l.toks = append(l.toks, tok{tOp, ">", l.pos})
				l.pos++
			}
		case ch == '=':
			l.toks = append(l.toks, tok{tOp, "=", l.pos})
			l.pos++
		case ch == '!':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '=' {
				l.toks = append(l.toks, tok{tOp, "!=", l.pos})
				l.pos += 2
			} else {
				return nil, fmt.Errorf("sparql: unexpected '!' at %d", l.pos)
			}
		case ch == '&':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '&' {
				l.toks = append(l.toks, tok{tOp, "&&", l.pos})
				l.pos += 2
			} else {
				return nil, fmt.Errorf("sparql: unexpected '&' at %d", l.pos)
			}
		case ch == '|':
			if l.pos+1 < len(l.in) && l.in[l.pos+1] == '|' {
				l.toks = append(l.toks, tok{tOp, "||", l.pos})
				l.pos += 2
			} else {
				return nil, fmt.Errorf("sparql: unexpected '|' at %d", l.pos)
			}
		case ch == '"' || ch == '\'':
			quote := ch
			start := l.pos
			l.pos++
			var sb strings.Builder
			for l.pos < len(l.in) && l.in[l.pos] != quote {
				if l.in[l.pos] == '\\' && l.pos+1 < len(l.in) {
					l.pos++
				}
				sb.WriteByte(l.in[l.pos])
				l.pos++
			}
			if l.pos >= len(l.in) {
				return nil, fmt.Errorf("sparql: unterminated string at %d", start)
			}
			l.pos++
			l.toks = append(l.toks, tok{tString, sb.String(), start})
		case ch >= '0' && ch <= '9' || (ch == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9'):
			start := l.pos
			l.pos++
			for l.pos < len(l.in) && (l.in[l.pos] >= '0' && l.in[l.pos] <= '9' || l.in[l.pos] == '.' || l.in[l.pos] == 'e' || l.in[l.pos] == 'E' || l.in[l.pos] == '+' || l.in[l.pos] == '-') {
				// Stop a trailing '.' that terminates a triple pattern rather
				// than continuing a decimal.
				if l.in[l.pos] == '.' && (l.pos+1 >= len(l.in) || l.in[l.pos+1] < '0' || l.in[l.pos+1] > '9') {
					break
				}
				l.pos++
			}
			l.toks = append(l.toks, tok{tNumber, l.in[start:l.pos], start})
		case strings.ContainsRune("{}().,/+*;", rune(ch)):
			l.toks = append(l.toks, tok{tPunct, string(ch), l.pos})
			l.pos++
		case isNameStart(rune(ch)):
			start := l.pos
			for l.pos < len(l.in) && (isNamePart(rune(l.in[l.pos])) || l.in[l.pos] == ':') {
				l.pos++
			}
			l.toks = append(l.toks, tok{tIdent, l.in[start:l.pos], start})
		default:
			return nil, fmt.Errorf("sparql: unexpected character %q at %d", ch, l.pos)
		}
	}
	l.toks = append(l.toks, tok{kind: tEOF, pos: l.pos})
	return l.toks, nil
}

func isNameStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isNamePart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
