// Package wikitext extracts infoboxes from MediaWiki markup. It implements
// the ingest substrate the paper relies on (Bleifuß et al., ICDE 2021): the
// key-value structure of every {{Infobox ...}} template on a page, robust
// against nested templates, wiki links, references and HTML comments.
package wikitext

import (
	"strings"
)

// Infobox is one parsed infobox template invocation.
type Infobox struct {
	// Template is the normalized template name, e.g. "infobox settlement".
	Template string
	// Params maps normalized parameter names to their raw values. Positional
	// parameters get the keys "1", "2", ...
	Params map[string]string
	// Order lists the parameter names in source order.
	Order []string
}

// Get returns the raw value of a parameter and whether it is present.
func (b *Infobox) Get(name string) (string, bool) {
	v, ok := b.Params[NormalizeParam(name)]
	return v, ok
}

// NormalizeTemplate canonicalizes a template name: surrounding whitespace
// trimmed, underscores mapped to spaces, internal whitespace collapsed, and
// lower-cased (MediaWiki template names are case-insensitive in their first
// letter; infobox template conventions vary in capitalization, so we fold
// the whole name).
func NormalizeTemplate(name string) string {
	name = strings.ReplaceAll(name, "_", " ")
	return strings.ToLower(strings.Join(strings.Fields(name), " "))
}

// NormalizeParam canonicalizes a parameter name: trimmed and lower-cased.
// Underscores are kept — parameter names like "birth_date" use them
// meaningfully.
func NormalizeParam(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// IsInfoboxTemplate reports whether the normalized template name denotes an
// infobox ("infobox ..." or the handful of legacy "... infobox" names).
func IsInfoboxTemplate(normalized string) bool {
	if strings.HasPrefix(normalized, "infobox") {
		return true
	}
	return strings.HasSuffix(normalized, " infobox")
}

// StripComments removes HTML comments (<!-- ... -->). An unterminated
// comment extends to the end of the input, matching MediaWiki behaviour.
func StripComments(text string) string {
	var b strings.Builder
	for {
		i := strings.Index(text, "<!--")
		if i < 0 {
			b.WriteString(text)
			return b.String()
		}
		b.WriteString(text[:i])
		rest := text[i+4:]
		j := strings.Index(rest, "-->")
		if j < 0 {
			return b.String()
		}
		text = rest[j+3:]
	}
}

// Template is a generic parsed template invocation with its source span.
type Template struct {
	Name  string // normalized
	Start int    // byte offset of "{{" in the (comment-stripped) input
	End   int    // byte offset just past "}}"
	Body  string // raw text between the braces, excluding them
}

// ParseTemplates scans text (which should already be comment-stripped) and
// returns every template invocation, including nested ones, in order of
// their opening braces. Unbalanced openings are ignored.
func ParseTemplates(text string) []Template {
	var out []Template
	var stack []int // offsets of unmatched "{{"
	for i := 0; i+1 < len(text); {
		switch {
		case text[i] == '{' && text[i+1] == '{':
			stack = append(stack, i)
			i += 2
		case text[i] == '}' && text[i+1] == '}' && len(stack) > 0:
			start := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			body := text[start+2 : i]
			out = append(out, Template{
				Name:  NormalizeTemplate(templateName(body)),
				Start: start,
				End:   i + 2,
				Body:  body,
			})
			i += 2
		default:
			i++
		}
	}
	// Re-order by opening position: the stack pops inner templates first.
	sortTemplates(out)
	return out
}

func sortTemplates(ts []Template) {
	// Insertion sort: the slice is nearly ordered already (only nesting
	// inverts neighbours) and n is small per page.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Start < ts[j-1].Start; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// templateName returns the raw name part of a template body (text before
// the first top-level '|', or the whole body).
func templateName(body string) string {
	depthT, depthL := 0, 0
	for i := 0; i < len(body); i++ {
		switch {
		case i+1 < len(body) && body[i] == '{' && body[i+1] == '{':
			depthT++
			i++
		case i+1 < len(body) && body[i] == '}' && body[i+1] == '}' && depthT > 0:
			depthT--
			i++
		case i+1 < len(body) && body[i] == '[' && body[i+1] == '[':
			depthL++
			i++
		case i+1 < len(body) && body[i] == ']' && body[i+1] == ']' && depthL > 0:
			depthL--
			i++
		case body[i] == '|' && depthT == 0 && depthL == 0:
			return body[:i]
		}
	}
	return body
}

// ParseInfoboxes extracts every infobox on a page. Comments are stripped
// first; nested infoboxes (e.g. an {{infobox}} embedded in a parameter of
// another) are all returned, outermost first.
func ParseInfoboxes(wikitext string) []Infobox {
	text := StripComments(wikitext)
	var out []Infobox
	for _, t := range ParseTemplates(text) {
		if !IsInfoboxTemplate(t.Name) {
			continue
		}
		out = append(out, parseInfobox(t))
	}
	return out
}

func parseInfobox(t Template) Infobox {
	box := Infobox{Template: t.Name, Params: make(map[string]string)}
	parts := splitParams(t.Body)
	positional := 0
	for _, part := range parts[1:] { // parts[0] is the template name
		key, value, named := splitKeyValue(part)
		if !named {
			positional++
			key = itoa(positional)
			value = part
		}
		key = NormalizeParam(key)
		if key == "" {
			continue
		}
		if _, seen := box.Params[key]; !seen {
			box.Order = append(box.Order, key)
		}
		// Later duplicates win, as in MediaWiki.
		box.Params[key] = strings.TrimSpace(value)
	}
	return box
}

// splitParams splits a template body on top-level '|' characters,
// respecting nested templates, links and <nowiki>/<ref> spans.
func splitParams(body string) []string {
	var parts []string
	depthT, depthL := 0, 0
	last := 0
	for i := 0; i < len(body); i++ {
		switch {
		case i+1 < len(body) && body[i] == '{' && body[i+1] == '{':
			depthT++
			i++
		case i+1 < len(body) && body[i] == '}' && body[i+1] == '}' && depthT > 0:
			depthT--
			i++
		case i+1 < len(body) && body[i] == '[' && body[i+1] == '[':
			depthL++
			i++
		case i+1 < len(body) && body[i] == ']' && body[i+1] == ']' && depthL > 0:
			depthL--
			i++
		case body[i] == '<':
			if j := skipTag(body, i); j > i {
				i = j - 1
			}
		case body[i] == '|' && depthT == 0 && depthL == 0:
			parts = append(parts, body[last:i])
			last = i + 1
		}
	}
	parts = append(parts, body[last:])
	return parts
}

// skipTag returns the offset just past a <ref>...</ref> or
// <nowiki>...</nowiki> span starting at i, or past a self-closing
// <ref ... />. It returns i when no such span starts here.
func skipTag(s string, i int) int {
	for _, tag := range []string{"ref", "nowiki"} {
		if !hasTagPrefix(s[i:], tag) {
			continue
		}
		// Find the end of the opening tag.
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			return len(s)
		}
		end += i
		if end > i && s[end-1] == '/' {
			return end + 1 // self-closing
		}
		closing := "</" + tag + ">"
		j := indexFold(s[end+1:], closing)
		if j < 0 {
			return len(s)
		}
		return end + 1 + j + len(closing)
	}
	return i
}

func hasTagPrefix(s, tag string) bool {
	if len(s) < len(tag)+2 || s[0] != '<' {
		return false
	}
	if !strings.EqualFold(s[1:1+len(tag)], tag) {
		return false
	}
	c := s[1+len(tag)]
	return c == '>' || c == ' ' || c == '/' || c == '\t' || c == '\n'
}

func indexFold(s, sub string) int {
	return strings.Index(strings.ToLower(s), strings.ToLower(sub))
}

// splitKeyValue splits "key = value" at the first top-level '=' sign. It
// reports named=false when no such '=' exists (a positional parameter).
// The key must look like a parameter name (no newline, no braces).
func splitKeyValue(part string) (key, value string, named bool) {
	depthT, depthL := 0, 0
	for i := 0; i < len(part); i++ {
		switch {
		case i+1 < len(part) && part[i] == '{' && part[i+1] == '{':
			depthT++
			i++
		case i+1 < len(part) && part[i] == '}' && part[i+1] == '}' && depthT > 0:
			depthT--
			i++
		case i+1 < len(part) && part[i] == '[' && part[i+1] == '[':
			depthL++
			i++
		case i+1 < len(part) && part[i] == ']' && part[i+1] == ']' && depthL > 0:
			depthL--
			i++
		case part[i] == '=' && depthT == 0 && depthL == 0:
			k := part[:i]
			if strings.ContainsAny(k, "{}[]<>") {
				return "", "", false
			}
			return k, part[i+1:], true
		}
	}
	return "", "", false
}

// CleanValue normalizes a raw parameter value for comparison across
// revisions: references and comments are dropped, wiki links are replaced
// by their display text, bold/italic markup is removed, templates are kept
// verbatim, and whitespace is collapsed.
func CleanValue(raw string) string {
	s := StripComments(raw)
	s = dropRefs(s)
	s = resolveLinks(s)
	s = strings.ReplaceAll(s, "'''", "")
	s = strings.ReplaceAll(s, "''", "")
	return strings.Join(strings.Fields(s), " ")
}

func dropRefs(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '<' {
			if j := skipTag(s, i); j > i {
				i = j
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// resolveLinks turns [[Target|Label]] into Label and [[Target]] into
// Target. Nested links (image captions) keep their outermost label.
func resolveLinks(s string) string {
	var b strings.Builder
	for {
		i := strings.Index(s, "[[")
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		rest := s[i+2:]
		depth := 1
		end := -1
		for j := 0; j+1 < len(rest); j++ {
			if rest[j] == '[' && rest[j+1] == '[' {
				depth++
				j++
			} else if rest[j] == ']' && rest[j+1] == ']' {
				depth--
				if depth == 0 {
					end = j
					break
				}
				j++
			}
		}
		if end < 0 {
			b.WriteString(s[i:])
			return b.String()
		}
		inner := rest[:end]
		if k := strings.LastIndexByte(inner, '|'); k >= 0 {
			b.WriteString(inner[k+1:])
		} else {
			b.WriteString(inner)
		}
		s = rest[end+2:]
	}
}

// itoa is a minimal positive-int formatter (avoids strconv for this one
// hot call site).
func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
