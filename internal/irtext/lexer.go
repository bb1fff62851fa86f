// Package irtext parses and formats the textual form of the IR defined in
// internal/ir. The syntax is a compact dialect of LLVM assembly:
//
//	@counter = global i32 0
//	declare i32 @start(i32)
//
//	define i32 @f(i32 %n) {
//	entry:
//	  %x1 = call i32 @start(i32 %n)
//	  %x2 = icmp slt i32 %x1, 0
//	  br i1 %x2, label %then, label %else
//	...
//	}
//
// Printing is provided by the String methods of ir.Module and
// ir.Function; Parse round-trips their output.
package irtext

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokLocal  // %name
	tokGlobal // @name
	tokInt
	tokFloat
	tokPunct // single-char punctuation, and "..."
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex tokenizes src. Comments run from ';' to end of line.
func lex(src string) ([]token, error) {
	// Printed IR runs about a token to four bytes; one allocation sized a
	// third over that is cheaper than growing from nil.
	toks := make([]token, 0, len(src)/3+16)
	line := 1
	i := 0
	n := len(src)
	isIdentRune := func(c byte) bool {
		return c == '_' || c == '.' || c == '-' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '%' || c == '@':
			j := i + 1
			for j < n && isIdentRune(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("line %d: empty %c-identifier", line, c)
			}
			kind := tokLocal
			if c == '@' {
				kind = tokGlobal
			}
			toks = append(toks, token{kind, src[i+1 : j], line})
			i = j
		case c == '-' || ('0' <= c && c <= '9'):
			j := i
			if c == '-' {
				j++
			}
			digits := 0
			for j < n && '0' <= src[j] && src[j] <= '9' {
				j++
				digits++
			}
			if digits == 0 {
				return nil, fmt.Errorf("line %d: stray '-'", line)
			}
			isFloat := false
			if j < n && src[j] == '.' && j+1 < n && '0' <= src[j+1] && src[j+1] <= '9' {
				isFloat = true
				j++
				for j < n && '0' <= src[j] && src[j] <= '9' {
					j++
				}
			}
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < n && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < n && '0' <= src[k] && src[k] <= '9' {
					isFloat = true
					for k < n && '0' <= src[k] && src[k] <= '9' {
						k++
					}
					j = k
				}
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[i:j], line})
			i = j
		case strings.HasPrefix(src[i:], "..."):
			toks = append(toks, token{tokPunct, "...", line})
			i += 3
		case isIdentRune(c):
			j := i
			for j < n && isIdentRune(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		case strings.ContainsRune("(){}[]=,*:", rune(c)):
			toks = append(toks, token{tokPunct, string(c), line})
			i++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}
