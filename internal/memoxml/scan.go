package memoxml

import (
	"bytes"
	"fmt"
	"html"
	"strconv"
)

// maxDepth bounds element nesting, so that a hostile document runs out of
// budget before the recursive decoder runs out of stack.
const maxDepth = 10000

// scanner is a pull tokenizer over the subset of XML 1.0 a memo document
// uses: a prolog, comments, elements with quoted attributes, character
// data, entity and character references — no DTD, CDATA or namespaces.
// child moves from element to element; get reads the attributes of the
// element child last returned. The first error sticks: from then on child
// reports false and get nil, so callers check err once, at the end.
type scanner struct {
	data  []byte
	pos   int
	err   error
	stack [][]byte // names of the open elements
	name  []byte   // the element child last returned
	empty bool     // that element closed itself with "/>"
	keys  [][]byte // its attributes, values unescaped
	vals  [][]byte
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("memoxml: "+format, args...)
	}
}

func (s *scanner) syntax(msg string) { s.fail("XML syntax error at byte %d: %s", s.pos, msg) }

// child advances to the next child of the current element, reading its
// start tag; it reports false once the current element's end tag (or,
// outside the root, the end of the input) has been consumed. Character
// data, comments and processing instructions on the way are skipped.
func (s *scanner) child() bool {
	if s.err != nil {
		return false
	}
	if s.empty {
		s.empty = false
		s.stack = s.stack[:len(s.stack)-1]
		return false
	}
	for s.err == nil {
		i := bytes.IndexByte(s.data[s.pos:], '<')
		if i < 0 {
			if s.pos = len(s.data); len(s.stack) > 0 {
				s.syntax("unexpected end of input")
			}
			return false
		}
		s.pos += i + 1
		switch rest := s.data[s.pos:]; {
		case bytes.HasPrefix(rest, []byte("!--")):
			s.skipPast("-->")
		case bytes.HasPrefix(rest, []byte("?")):
			s.skipPast("?>")
		case bytes.HasPrefix(rest, []byte("!")):
			s.syntax("DOCTYPE and CDATA sections are not supported")
		case bytes.HasPrefix(rest, []byte("/")):
			s.pos++
			name := s.word()
			s.space()
			if len(s.stack) == 0 || !bytes.Equal(name, s.stack[len(s.stack)-1]) || !s.eat('>') {
				s.syntax("mismatched end tag")
				return false
			}
			s.stack = s.stack[:len(s.stack)-1]
			return false
		default:
			return s.startTag()
		}
	}
	return false
}

// startTag reads an element name and its attributes.
func (s *scanner) startTag() bool {
	if s.name = s.word(); len(s.name) == 0 || len(s.stack) >= maxDepth {
		s.syntax("expected an element name, nested no deeper than " + strconv.Itoa(maxDepth))
		return false
	}
	s.stack = append(s.stack, s.name)
	s.keys, s.vals = s.keys[:0], s.vals[:0]
	for {
		s.space()
		if s.eat('>') {
			return true
		}
		if s.eat('/') {
			if s.empty = s.eat('>'); !s.empty {
				s.syntax("expected > after /")
			}
			return s.empty
		}
		key := s.word()
		s.space()
		if len(key) == 0 || !s.eat('=') {
			s.syntax("malformed attribute")
			return false
		}
		s.space()
		end := -1
		if s.eat('"') {
			end = bytes.IndexByte(s.data[s.pos:], '"')
		} else if s.eat('\'') {
			end = bytes.IndexByte(s.data[s.pos:], '\'')
		}
		if end < 0 {
			s.syntax("attribute value is not a quoted string")
			return false
		}
		s.keys = append(s.keys, key)
		s.vals = append(s.vals, unescape(s.data[s.pos:s.pos+end]))
		s.pos += end + 1
	}
}

// skip consumes whatever is left of the current element.
func (s *scanner) skip() {
	for s.child() {
		s.skip()
	}
}

// text returns the character data between the current element's start tag
// and its first child or end tag.
func (s *scanner) text() []byte {
	if s.empty || s.err != nil {
		return nil
	}
	end := bytes.IndexByte(s.data[s.pos:], '<')
	if end < 0 {
		end = len(s.data) - s.pos
	}
	s.pos += end
	return unescape(s.data[s.pos-end : s.pos])
}

// unescape resolves entity and character references; text without any is
// returned as is.
func unescape(raw []byte) []byte {
	if bytes.IndexByte(raw, '&') < 0 {
		return raw
	}
	return []byte(html.UnescapeString(string(raw)))
}

// get returns an attribute of the current element, nil when it has none
// of that name.
func (s *scanner) get(name string) []byte {
	for i, k := range s.keys {
		if string(k) == name {
			return s.vals[i]
		}
	}
	return nil
}

// word consumes a run of name characters: anything but white space and
// the markup delimiters.
func (s *scanner) word() []byte {
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r', '/', '>', '=', '<', '"', '\'':
			return s.data[start:s.pos]
		}
	}
	return s.data[start:]
}

func (s *scanner) space() {
	for s.pos < len(s.data) && (s.data[s.pos] == ' ' || s.data[s.pos] == '\n' || s.data[s.pos] == '\t' || s.data[s.pos] == '\r') {
		s.pos++
	}
}

func (s *scanner) eat(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *scanner) skipPast(marker string) {
	i := bytes.Index(s.data[s.pos:], []byte(marker))
	if i < 0 {
		s.syntax("unterminated markup, expected " + marker)
		return
	}
	s.pos += i + len(marker)
}
