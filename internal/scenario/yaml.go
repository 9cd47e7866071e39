package scenario

// This file implements the YAML subset the scenario schema uses. The
// repository deliberately has no third-party dependencies, and a
// hand-rolled parser buys the one feature stock YAML libraries hide: every
// node remembers its source line, so schema errors can point at the
// offending key and line ("examples/scenarios/x.yaml:12: events[1].start:
// ..."), which the scenario CLI's validate command is contractually
// required to do.
//
// Supported constructs — two-space indented block mappings, block
// sequences of scalars or mappings ("- key: value" items), flow sequences
// of scalars ("[a, b, c]"), single- and double-quoted scalars, and "#"
// comments. That is the whole schema surface; anchors, multi-line
// scalars, multi-document streams and tab indentation are rejected.

import (
	"fmt"
	"strings"
)

type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

// node is one parsed YAML value with its source line.
type node struct {
	kind   nodeKind
	line   int
	scalar string
	// mapNode: insertion-ordered keys, child values and the line each
	// key appeared on.
	keys    []string
	fields  map[string]*node
	keyLine map[string]int
	// seqNode items.
	items []*node
}

func (n *node) child(key string) *node { return n.fields[key] }

// srcLine is one significant input line: 1-based number, indentation
// depth and content with indentation and comments stripped.
type srcLine struct {
	num    int
	indent int
	text   string
}

type yamlParser struct {
	file  string
	lines []srcLine
	pos   int
}

// parseError is a position-tagged syntax error.
func parseErr(file string, line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", file, line, fmt.Sprintf(format, args...))
}

// stripComment removes a trailing "#" comment, respecting quoted strings.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i, r := range s {
		switch {
		case r == '\'' && !inDouble:
			inSingle = !inSingle
		case r == '"' && !inSingle:
			inDouble = !inDouble
		case r == '#' && !inSingle && !inDouble:
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

// parseYAML parses data into a node tree rooted at a mapping.
func parseYAML(file string, data []byte) (*node, error) {
	p := &yamlParser{file: file}
	for i, raw := range strings.Split(string(data), "\n") {
		if strings.Contains(raw, "\t") {
			return nil, parseErr(file, i+1, "tab characters are not allowed; indent with spaces")
		}
		text := strings.TrimRight(stripComment(raw), " ")
		trimmed := strings.TrimLeft(text, " ")
		if trimmed == "" {
			continue
		}
		if trimmed == "---" {
			if len(p.lines) > 0 {
				return nil, parseErr(file, i+1, "multi-document streams are not supported")
			}
			continue
		}
		p.lines = append(p.lines, srcLine{num: i + 1, indent: len(text) - len(trimmed), text: trimmed})
	}
	if len(p.lines) == 0 {
		return nil, parseErr(file, 1, "empty document")
	}
	if first := p.lines[0]; first.indent != 0 {
		return nil, parseErr(file, first.num, "top level must not be indented")
	}
	root, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, parseErr(file, l.num, "unexpected indentation")
	}
	if root.kind != mapNode {
		return nil, parseErr(file, root.line, "top level must be a mapping")
	}
	return root, nil
}

// parseBlock parses the mapping or sequence starting at the current line,
// whose indentation is indent.
func (p *yamlParser) parseBlock(indent int) (*node, error) {
	if isSeqItem(p.lines[p.pos].text) {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func (p *yamlParser) parseMap(indent int) (*node, error) {
	n := &node{
		kind:    mapNode,
		line:    p.lines[p.pos].num,
		fields:  map[string]*node{},
		keyLine: map[string]int{},
	}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, parseErr(p.file, l.num, "unexpected indentation")
		}
		if isSeqItem(l.text) {
			return nil, parseErr(p.file, l.num, "sequence item where a key was expected (indent sequence items under their key)")
		}
		key, val, ok := splitKey(l.text)
		if !ok {
			return nil, parseErr(p.file, l.num, "expected \"key: value\" or \"key:\", got %q", l.text)
		}
		if _, dup := n.fields[key]; dup {
			return nil, parseErr(p.file, l.num, "duplicate key %q (first on line %d)", key, n.keyLine[key])
		}
		p.pos++
		var child *node
		if val == "" {
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				c, err := p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				child = c
			} else {
				// "key:" with nothing beneath — an empty scalar.
				child = &node{kind: scalarNode, line: l.num}
			}
		} else {
			c, err := parseValue(p.file, l.num, val)
			if err != nil {
				return nil, err
			}
			child = c
		}
		n.keys = append(n.keys, key)
		n.fields[key] = child
		n.keyLine[key] = l.num
	}
	return n, nil
}

func (p *yamlParser) parseSeq(indent int) (*node, error) {
	n := &node{kind: seqNode, line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || !isSeqItem(l.text) {
			if l.indent > indent {
				return nil, parseErr(p.file, l.num, "unexpected indentation")
			}
			break
		}
		rest := strings.TrimLeft(strings.TrimPrefix(l.text, "-"), " ")
		if rest == "" {
			return nil, parseErr(p.file, l.num, "empty sequence item")
		}
		if _, _, isMap := splitKey(rest); isMap {
			// A mapping item: re-home the first "key: value" after the
			// dash to the item's body indentation and parse the mapping
			// (its continuation lines are already indented there).
			p.lines[p.pos] = srcLine{num: l.num, indent: indent + 2, text: rest}
			item, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
			continue
		}
		p.pos++
		item, err := parseValue(p.file, l.num, rest)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
	}
	return n, nil
}

// splitKey splits "key: value" / "key:" into its parts. Keys are plain
// identifiers (letters, digits, "_", "-"), which is what distinguishes a
// mapping line from a scalar like "2020-03-14 15:00".
func splitKey(text string) (key, value string, ok bool) {
	i := strings.IndexByte(text, ':')
	if i <= 0 {
		return "", "", false
	}
	key = text[:i]
	for _, r := range key {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-') {
			return "", "", false
		}
	}
	rest := text[i+1:]
	if rest == "" {
		return key, "", true
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", false
	}
	return key, strings.TrimLeft(rest, " "), true
}

// parseValue turns an inline value into a scalar or flow-sequence node.
func parseValue(file string, line int, val string) (*node, error) {
	if strings.HasPrefix(val, "[") {
		if !strings.HasSuffix(val, "]") {
			return nil, parseErr(file, line, "unterminated flow sequence %q", val)
		}
		n := &node{kind: seqNode, line: line}
		inner := strings.TrimSpace(val[1 : len(val)-1])
		if inner == "" {
			return n, nil
		}
		for _, part := range strings.Split(inner, ",") {
			s, err := unquote(file, line, strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, &node{kind: scalarNode, line: line, scalar: s})
		}
		return n, nil
	}
	s, err := unquote(file, line, val)
	if err != nil {
		return nil, err
	}
	return &node{kind: scalarNode, line: line, scalar: s}, nil
}

func unquote(file string, line int, s string) (string, error) {
	for _, q := range []byte{'"', '\''} {
		if len(s) > 0 && s[0] == q {
			if len(s) < 2 || s[len(s)-1] != q {
				return "", parseErr(file, line, "unterminated quoted string %s", s)
			}
			return s[1 : len(s)-1], nil
		}
	}
	return s, nil
}
