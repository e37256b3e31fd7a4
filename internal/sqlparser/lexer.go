package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol   // , ( ) . *
	tokOperator // = <> < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	input string
	pos   int
	toks  []token
}

func lex(input string) ([]token, error) {
	l := &lexer{input: input}
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.pos++
		case ch == '-' && l.pos+1 < len(l.input) && l.input[l.pos+1] == '-':
			// line comment
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(rune(ch)):
			l.lexIdent()
		case ch >= '0' && ch <= '9':
			l.lexNumber()
		case ch == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case ch == ',' || ch == '(' || ch == ')' || ch == '.' || ch == '*':
			l.toks = append(l.toks, token{kind: tokSymbol, text: string(ch), pos: l.pos})
			l.pos++
		case ch == '=':
			l.toks = append(l.toks, token{kind: tokOperator, text: "=", pos: l.pos})
			l.pos++
		case ch == '<':
			if l.pos+1 < len(l.input) && (l.input[l.pos+1] == '=' || l.input[l.pos+1] == '>') {
				l.toks = append(l.toks, token{kind: tokOperator, text: l.input[l.pos : l.pos+2], pos: l.pos})
				l.pos += 2
			} else {
				l.toks = append(l.toks, token{kind: tokOperator, text: "<", pos: l.pos})
				l.pos++
			}
		case ch == '>':
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
				l.toks = append(l.toks, token{kind: tokOperator, text: ">=", pos: l.pos})
				l.pos += 2
			} else {
				l.toks = append(l.toks, token{kind: tokOperator, text: ">", pos: l.pos})
				l.pos++
			}
		case ch == '!':
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
				l.toks = append(l.toks, token{kind: tokOperator, text: "<>", pos: l.pos})
				l.pos += 2
			} else {
				return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", ch, l.pos)
			}
		case ch == ';':
			l.pos++ // trailing semicolons are ignored
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", ch, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '"'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent() {
	start := l.pos
	if l.input[l.pos] == '"' {
		// delimited identifier
		l.pos++
		for l.pos < len(l.input) && l.input[l.pos] != '"' {
			l.pos++
		}
		text := l.input[start+1 : l.pos]
		if l.pos < len(l.input) {
			l.pos++ // closing quote
		}
		l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
		return
	}
	for l.pos < len(l.input) && isIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.input[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		if ch >= '0' && ch <= '9' {
			l.pos++
			continue
		}
		if ch == '.' && !seenDot && !seenExp {
			seenDot = true
			l.pos++
			continue
		}
		if (ch == 'e' || ch == 'E') && !seenExp && l.pos+1 < len(l.input) {
			next := l.input[l.pos+1]
			if next == '+' || next == '-' || (next >= '0' && next <= '9') {
				seenExp = true
				l.pos += 2
				continue
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.input[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // skip opening quote
	var sb strings.Builder
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		if ch == '\'' {
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(ch)
		l.pos++
	}
	return fmt.Errorf("sqlparser: unterminated string literal at %d", start)
}
