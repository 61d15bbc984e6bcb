// Package minc implements a small C-like language — "mini C" — that
// compiles to the ir register machine. The evaluation programs of
// Table 1 (the PHP, SQLite, memcached, … bug analogs) are written in
// minc, playing the role the C/C++ applications play in the paper:
// realistic programs whose failing executions ER reconstructs.
//
// The language has signed and unsigned integers of four widths,
// pointers with C-style scaled arithmetic, arrays, functions, string
// literals, and intrinsics for program input (the non-determinism
// source, standing in for files/sockets/syscalls), failure injection
// (assert/abort), heap allocation, observable output, and threads
// (spawn/join/lock/unlock).
package minc

import "fmt"

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct   // operators and delimiters
	tokKeyword // reserved words
)

type token struct {
	kind tokKind
	text string
	num  uint64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokNumber:
		return fmt.Sprintf("%d", t.num)
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

var keywords = map[string]bool{
	"func": true, "return": true, "if": true, "else": true,
	"while": true, "for": true, "break": true, "continue": true,
	"char": true, "short": true, "int": true, "long": true,
	"uchar": true, "ushort": true, "uint": true, "ulong": true,
	"void": true, "sizeof": true, "spawn": true,
}

// Error is a positioned front-end error.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("minc:%d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
