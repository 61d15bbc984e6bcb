package minc

import (
	"strconv"
	"strings"
)

// lexer tokenizes minc source.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex tokenizes the whole source up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekByte2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekByte2() == '*':
			l.pos += 2
			for {
				if l.pos+1 >= len(l.src) {
					return errf(l.line, "unterminated block comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// multi-byte punctuation, longest first.
var puncts = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
	"<", ">", "=", "(", ")", "{", "}", "[", "]", ",", ";",
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	line := l.line
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line}, nil
	}
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		start := l.pos
		base := 10
		if c == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
			l.pos += 2
			start = l.pos
			base = 16
			for l.pos < len(l.src) && isHex(l.src[l.pos]) {
				l.pos++
			}
		} else {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseUint(text, base, 64)
		if err != nil {
			return token{}, errf(line, "bad number %q", text)
		}
		return token{kind: tokNumber, text: text, num: v, line: line}, nil
	case isAlpha(c):
		start := l.pos
		for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		k := tokIdent
		if keywords[text] {
			k = tokKeyword
		}
		return token{kind: k, text: text, line: line}, nil
	case c == '"':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errf(line, "unterminated string")
			}
			ch := l.src[l.pos]
			l.pos++
			if ch == '"' {
				break
			}
			if ch == '\\' {
				e, err := l.escape(line)
				if err != nil {
					return token{}, err
				}
				sb.WriteByte(e)
				continue
			}
			if ch == '\n' {
				return token{}, errf(line, "newline in string")
			}
			sb.WriteByte(ch)
		}
		return token{kind: tokString, text: sb.String(), line: line}, nil
	case c == '\'':
		l.pos++
		if l.pos >= len(l.src) {
			return token{}, errf(line, "unterminated char literal")
		}
		var v byte
		if l.src[l.pos] == '\\' {
			l.pos++
			e, err := l.escape(line)
			if err != nil {
				return token{}, err
			}
			v = e
		} else {
			v = l.src[l.pos]
			l.pos++
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			return token{}, errf(line, "unterminated char literal")
		}
		l.pos++
		return token{kind: tokNumber, text: string(v), num: uint64(v), line: line}, nil
	}
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.pos += len(p)
			return token{kind: tokPunct, text: p, line: line}, nil
		}
	}
	return token{}, errf(line, "unexpected character %q", string(c))
}

// escape consumes one escape sequence body (after the backslash).
func (l *lexer) escape(line int) (byte, error) {
	if l.pos >= len(l.src) {
		return 0, errf(line, "unterminated escape")
	}
	ch := l.src[l.pos]
	l.pos++
	switch ch {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case 'x':
		if l.pos+1 >= len(l.src) || !isHex(l.src[l.pos]) || !isHex(l.src[l.pos+1]) {
			return 0, errf(line, "bad hex escape")
		}
		v, _ := strconv.ParseUint(l.src[l.pos:l.pos+2], 16, 8)
		l.pos += 2
		return byte(v), nil
	}
	return 0, errf(line, "unknown escape \\%c", ch)
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
