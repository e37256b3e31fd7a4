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
	// quoted marks a delimited identifier ("name"), which is never a keyword.
	quoted bool
	// text is a substring of the input, except for a string literal with a
	// doubled quote in it.
	text string
}

type lexer struct {
	input string
	pos   int
	toks  []token
}

// lex appends the input's tokens, ending with tokEOF, to toks.
func lex(input string, toks []token) ([]token, error) {
	l := &lexer{input: input, toks: toks}
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.pos++
		case ch == '-' && l.peekAt(1) == '-':
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
				return l.toks, err
			}
		case ch == ',' || ch == '(' || ch == ')' || ch == '.' || ch == '*':
			l.emit(tokSymbol, 1)
		case ch == '=' || ch == '<' || ch == '>' || ch == '!':
			n := 1
			if next := l.peekAt(1); next == '=' && ch != '=' || ch == '<' && next == '>' {
				n = 2
			}
			switch {
			case ch != '!':
				l.emit(tokOperator, n)
			case n == 2:
				l.toks = append(l.toks, token{kind: tokOperator, text: "<>"}) // != is <>
				l.pos += 2
			default:
				return l.toks, fmt.Errorf("sqlparser: unexpected character %q at %d", ch, l.pos)
			}
		case ch == ';':
			l.pos++ // trailing semicolons are ignored
		default:
			return l.toks, fmt.Errorf("sqlparser: unexpected character %q at %d", ch, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF})
	return l.toks, nil
}

// peekAt returns the input byte k past the current one, or 0 past the end.
func (l *lexer) peekAt(k int) byte {
	if l.pos+k < len(l.input) {
		return l.input[l.pos+k]
	}
	return 0
}

// emit appends the next n input bytes as one token.
func (l *lexer) emit(kind tokenKind, n int) {
	l.toks = append(l.toks, token{kind: kind, text: l.input[l.pos : l.pos+n]})
	l.pos += n
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
		l.toks = append(l.toks, token{kind: tokIdent, quoted: true, text: l.input[start+1 : l.pos]})
		if l.pos < len(l.input) {
			l.pos++ // closing quote
		}
		return
	}
	for l.pos < len(l.input) && isIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.input[start:l.pos]})
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
		if (ch == 'e' || ch == 'E') && !seenExp {
			if next := l.peekAt(1); next == '+' || next == '-' || (next >= '0' && next <= '9') {
				seenExp = true
				l.pos += 2
				continue
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.input[start:l.pos]})
}

// lexString reads a quoted literal. Its text is cut from the input, and
// copied only where a doubled quote has to become one.
func (l *lexer) lexString() error {
	start := l.pos
	for l.pos++; l.pos < len(l.input); l.pos++ {
		if l.input[l.pos] != '\'' {
			continue
		}
		if l.peekAt(1) == '\'' {
			l.pos++
			continue
		}
		text := strings.ReplaceAll(l.input[start+1:l.pos], "''", "'")
		l.pos++
		l.toks = append(l.toks, token{kind: tokString, text: text})
		return nil
	}
	return fmt.Errorf("sqlparser: unterminated string literal at %d", start)
}
