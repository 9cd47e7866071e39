// Package scenario is the declarative what-if layer over the synthetic
// traffic model: a small YAML schema declaring membership and class mixes
// of the fixed vantage points, and an event timeline (lockdown waves,
// holidays, flash events, link outages, a return to office) that compiles
// down to the synth.Component/Response models the experiments already
// consume. The paper's own COVID-19 timeline is just the shipped default
// scenario (examples/scenarios/default.yaml), which compiles to the
// built-in model bit for bit; everything else is a variant, tagged as such
// so derived caches and goldens never alias it with the default.
//
// docs/SCENARIOS.md holds the generated schema reference; regenerate it
// with "lockdown scenario doc" after changing the schema.
package scenario

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
)

// EventType discriminates the timeline event variants.
type EventType string

// The event types of the schema.
const (
	EventLockdownWave   EventType = "lockdown_wave"
	EventHoliday        EventType = "holiday"
	EventFlashEvent     EventType = "flash_event"
	EventLinkOutage     EventType = "link_outage"
	EventReturnToOffice EventType = "return_to_office"
)

// Event is one entry of the scenario timeline. Which fields are
// meaningful depends on Type; Load validates the combinations.
type Event struct {
	Type EventType
	Line int // source line of the event, for error reporting

	// lockdown_wave: Start, Severity, RampDays; overlay waves (every
	// wave after the first) may add DecayStart, End and Retained.
	// flash_event: Start, End, Factor, Classes, RampIn, RampOut.
	// link_outage: Start, End, Residual, VPs.
	// return_to_office: Start, optional Retained.
	// holiday: Date, Name.
	Start      time.Time
	End        time.Time
	DecayStart time.Time
	Date       time.Time
	Severity   float64
	Factor     float64
	Residual   float64
	Retained   *float64
	RampDays   int
	RampIn     time.Duration
	RampOut    time.Duration
	Classes    []synth.Class
	VPs        []synth.VantagePoint
	Name       string
}

// Scenario is a validated scenario declaration.
type Scenario struct {
	// Name tags the scenario; non-default compiled configs carry it as
	// their synth.Config.Variant.
	Name        string
	Description string
	// Seed and FlowScale, when non-zero, are the scenario's declared
	// defaults; explicit CLI flags still win.
	Seed      int64
	FlowScale float64
	// Members overrides the IXP membership counts.
	Members map[synth.VantagePoint]int
	// ClassMix scales the baseline rate of every component of a class.
	ClassMix map[synth.Class]float64
	// Events is the timeline, in declaration order.
	Events []Event

	file string
}

// knownClasses enumerates the traffic classes a scenario may reference.
var knownClasses = map[string]synth.Class{}

func init() {
	for _, c := range []synth.Class{
		synth.ClassWeb, synth.ClassQUIC, synth.ClassVoD, synth.ClassCDN,
		synth.ClassSocial, synth.ClassGaming, synth.ClassMessaging,
		synth.ClassEmail, synth.ClassWebConf, synth.ClassCollab,
		synth.ClassEducational, synth.ClassVPNPort, synth.ClassVPNTLS,
		synth.ClassTunnel, synth.ClassTVStream, synth.ClassCloudLB,
		synth.ClassAltHTTP, synth.ClassUnknownPort, synth.ClassPush,
		synth.ClassMusic, synth.ClassSSH, synth.ClassRemoteDesk,
		synth.ClassEnterprise, synth.ClassOther,
	} {
		knownClasses[string(c)] = c
	}
}

func knownVPs() map[string]synth.VantagePoint {
	m := make(map[string]synth.VantagePoint)
	for _, vp := range synth.AllVantagePoints() {
		m[string(vp)] = vp
	}
	return m
}

// FieldError is a schema or semantic validation error tied to a source
// position and — when one applies — the offending key.
type FieldError struct {
	File string
	Line int
	Key  string // dotted path, e.g. "events[1].start"
	Msg  string
}

func (e *FieldError) Error() string {
	if e.Key != "" {
		return fmt.Sprintf("%s:%d: %s: %s", e.File, e.Line, e.Key, e.Msg)
	}
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// decoder carries the filename through schema decoding.
type decoder struct{ file string }

func (d *decoder) errf(line int, key, format string, args ...any) error {
	return &FieldError{File: d.file, Line: line, Key: key, Msg: fmt.Sprintf(format, args...)}
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// strictKeys rejects keys outside the allowed set, naming the intruder.
func (d *decoder) strictKeys(n *node, path string, allowed ...string) error {
	for _, k := range n.keys {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			return d.errf(n.keyLine[k], joinPath(path, k),
				"unknown key (allowed: %s)", strings.Join(allowed, ", "))
		}
	}
	return nil
}

func (d *decoder) scalar(n *node, path string) (string, int, error) {
	if n.kind != scalarNode {
		return "", n.line, d.errf(n.line, path, "expected a scalar value")
	}
	return n.scalar, n.line, nil
}

func (d *decoder) str(m *node, path, key string) (string, int, bool, error) {
	c := m.child(key)
	if c == nil {
		return "", 0, false, nil
	}
	s, line, err := d.scalar(c, joinPath(path, key))
	return s, line, true, err
}

func (d *decoder) float(m *node, path, key string) (float64, int, bool, error) {
	s, line, ok, err := d.str(m, path, key)
	if !ok || err != nil {
		return 0, line, ok, err
	}
	v, finite := parseFinite(s)
	if !finite {
		return 0, line, true, d.errf(line, joinPath(path, key), "invalid number %q", s)
	}
	return v, line, true, nil
}

// parseFinite parses a float and refuses NaN and ±Inf, which ParseFloat
// accepts by name: the range checks behind every float of the schema are
// comparisons, and NaN passes those.
func parseFinite(s string) (v float64, ok bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

func (d *decoder) int(m *node, path, key string) (int64, int, bool, error) {
	s, line, ok, err := d.str(m, path, key)
	if !ok || err != nil {
		return 0, line, ok, err
	}
	v, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil {
		return 0, line, true, d.errf(line, joinPath(path, key), "invalid integer %q", s)
	}
	return v, line, true, nil
}

// date parses "2006-01-02" or "2006-01-02 15:04" (UTC).
func (d *decoder) date(m *node, path, key string) (time.Time, int, bool, error) {
	s, line, ok, err := d.str(m, path, key)
	if !ok || err != nil {
		return time.Time{}, line, ok, err
	}
	for _, layout := range []string{"2006-01-02", "2006-01-02 15:04"} {
		if t, perr := time.ParseInLocation(layout, s, time.UTC); perr == nil {
			return t, line, true, nil
		}
	}
	return time.Time{}, line, true,
		d.errf(line, joinPath(path, key), "invalid date %q (want YYYY-MM-DD or YYYY-MM-DD HH:MM, UTC)", s)
}

func (d *decoder) strings(m *node, path, key string) ([]string, []int, bool, error) {
	c := m.child(key)
	if c == nil {
		return nil, nil, false, nil
	}
	p := joinPath(path, key)
	if c.kind != seqNode {
		return nil, nil, true, d.errf(c.line, p, "expected a list")
	}
	var out []string
	var lines []int
	for i, item := range c.items {
		s, line, err := d.scalar(item, fmt.Sprintf("%s[%d]", p, i))
		if err != nil {
			return nil, nil, true, err
		}
		out = append(out, s)
		lines = append(lines, line)
	}
	return out, lines, true, nil
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse validates a scenario document; file names the source in errors.
func Parse(file string, data []byte) (*Scenario, error) {
	root, err := parseYAML(file, data)
	if err != nil {
		return nil, err
	}
	d := &decoder{file: file}
	s := &Scenario{file: file}
	if err := d.strictKeys(root, "",
		"name", "description", "seed", "flow_scale",
		"members", "class_mix", "events"); err != nil {
		return nil, err
	}
	if err := d.decodeTop(root, s); err != nil {
		return nil, err
	}
	if err := d.decodeEvents(root, s); err != nil {
		return nil, err
	}
	if err := d.crossValidate(s); err != nil {
		return nil, err
	}
	return s, nil
}

func (d *decoder) decodeTop(root *node, s *Scenario) error {
	name, line, ok, err := d.str(root, "", "name")
	if err != nil {
		return err
	}
	if !ok || name == "" {
		return d.errf(root.line, "name", "required (a non-empty scenario name)")
	}
	if strings.ContainsAny(name, " \t/") {
		return d.errf(line, "name", "must not contain spaces or slashes (it becomes the compiled model's variant tag)")
	}
	s.Name = name
	if desc, _, ok, err := d.str(root, "", "description"); err != nil {
		return err
	} else if ok {
		s.Description = desc
	}

	if v, _, ok, err := d.int(root, "", "seed"); err != nil {
		return err
	} else if ok {
		s.Seed = v
	}
	if v, line, ok, err := d.float(root, "", "flow_scale"); err != nil {
		return err
	} else if ok {
		if v <= 0 {
			return d.errf(line, "flow_scale", "must be positive, got %g", v)
		}
		s.FlowScale = v
	}

	if m := root.child("members"); m != nil {
		if m.kind != mapNode {
			return d.errf(m.line, "members", "expected a mapping of vantage point to member count")
		}
		vps := knownVPs()
		s.Members = map[synth.VantagePoint]int{}
		for _, k := range m.keys {
			path := joinPath("members", k)
			vp, known := vps[k]
			if !known {
				return d.errf(m.keyLine[k], path, "unknown vantage point %q (have %s)", k, vpNames())
			}
			val, line, err := d.scalar(m.child(k), path)
			if err != nil {
				return err
			}
			n, perr := strconv.Atoi(val)
			if perr != nil || n <= 0 {
				return d.errf(line, path, "member count must be a positive integer, got %q", val)
			}
			s.Members[vp] = n
		}
	}

	if m := root.child("class_mix"); m != nil {
		if m.kind != mapNode {
			return d.errf(m.line, "class_mix", "expected a mapping of traffic class to scale factor")
		}
		s.ClassMix = map[synth.Class]float64{}
		for _, k := range m.keys {
			path := joinPath("class_mix", k)
			class, known := knownClasses[k]
			if !known {
				return d.errf(m.keyLine[k], path, "unknown traffic class %q", k)
			}
			val, line, err := d.scalar(m.child(k), path)
			if err != nil {
				return err
			}
			f, finite := parseFinite(val)
			if !finite || f <= 0 {
				return d.errf(line, path, "scale factor must be a positive number, got %q", val)
			}
			s.ClassMix[class] = f
		}
	}
	return nil
}

func (d *decoder) decodeEvents(root *node, s *Scenario) error {
	evs := root.child("events")
	if evs == nil {
		return nil
	}
	if evs.kind != seqNode {
		return d.errf(evs.line, "events", "expected a list of events")
	}
	for i, item := range evs.items {
		path := fmt.Sprintf("events[%d]", i)
		if item.kind != mapNode {
			return d.errf(item.line, path, "expected an event mapping")
		}
		typ, _, ok, err := d.str(item, path, "type")
		if err != nil {
			return err
		}
		if !ok {
			return d.errf(item.line, joinPath(path, "type"), "required (one of %s)", eventTypeNames())
		}
		ev := Event{Type: EventType(typ), Line: item.line}
		var decode func(*node, string, *Event) error
		switch ev.Type {
		case EventLockdownWave:
			decode = d.decodeWave
		case EventHoliday:
			decode = d.decodeHoliday
		case EventFlashEvent:
			decode = d.decodeFlash
		case EventLinkOutage:
			decode = d.decodeOutage
		case EventReturnToOffice:
			decode = d.decodeReturn
		default:
			return d.errf(item.keyLine["type"], joinPath(path, "type"),
				"unknown event type %q (one of %s)", typ, eventTypeNames())
		}
		if err := decode(item, path, &ev); err != nil {
			return err
		}
		s.Events = append(s.Events, ev)
	}
	return nil
}

// reqDate fetches a required in-window date field.
func (d *decoder) reqDate(m *node, path, key string) (time.Time, error) {
	t, line, ok, err := d.date(m, path, key)
	if err != nil {
		return time.Time{}, err
	}
	if !ok {
		return time.Time{}, d.errf(m.line, joinPath(path, key), "required")
	}
	if t.Before(calendar.StudyStart) || !t.Before(calendar.StudyEnd) {
		return time.Time{}, d.errf(line, joinPath(path, key),
			"date %s outside the study window [%s, %s)", t.Format("2006-01-02"),
			calendar.StudyStart.Format("2006-01-02"), calendar.StudyEnd.Format("2006-01-02"))
	}
	return t, nil
}

// optDate fetches an optional date field, still window-checked.
func (d *decoder) optDate(m *node, path, key string) (time.Time, bool, error) {
	if m.child(key) == nil {
		return time.Time{}, false, nil
	}
	t, err := d.reqDate(m, path, key)
	return t, err == nil, err
}

func (d *decoder) decodeWave(m *node, path string, ev *Event) error {
	if err := d.strictKeys(m, path, "type", "start", "severity", "ramp_days", "decay_start", "end", "retained"); err != nil {
		return err
	}
	var err error
	if ev.Start, err = d.reqDate(m, path, "start"); err != nil {
		return err
	}
	sev, line, ok, err := d.float(m, path, "severity")
	if err != nil {
		return err
	}
	if !ok {
		return d.errf(m.line, joinPath(path, "severity"), "required (1 repeats the paper's wave, 0.5 halves it)")
	}
	if sev < 0 {
		return d.errf(line, joinPath(path, "severity"), "must not be negative, got %g", sev)
	}
	ev.Severity = sev
	ev.RampDays = 10
	if v, line, ok, err := d.int(m, path, "ramp_days"); err != nil {
		return err
	} else if ok {
		if v < 0 || v > 60 {
			return d.errf(line, joinPath(path, "ramp_days"), "must be between 0 and 60 days, got %d", v)
		}
		ev.RampDays = int(v)
	}
	if t, ok, err := d.optDate(m, path, "decay_start"); err != nil {
		return err
	} else if ok {
		ev.DecayStart = t
	}
	if t, ok, err := d.optDate(m, path, "end"); err != nil {
		return err
	} else if ok {
		ev.End = t
	}
	if v, line, ok, err := d.float(m, path, "retained"); err != nil {
		return err
	} else if ok {
		if v < 0 || v > 1 {
			return d.errf(line, joinPath(path, "retained"), "must be within [0, 1], got %g", v)
		}
		ev.Retained = &v
	}
	return nil
}

func (d *decoder) decodeHoliday(m *node, path string, ev *Event) error {
	if err := d.strictKeys(m, path, "type", "date", "name"); err != nil {
		return err
	}
	var err error
	if ev.Date, err = d.reqDate(m, path, "date"); err != nil {
		return err
	}
	ev.Name, _, _, err = d.str(m, path, "name")
	return err
}

func (d *decoder) decodeFlash(m *node, path string, ev *Event) error {
	if err := d.strictKeys(m, path, "type", "start", "end", "factor", "classes", "ramp_in_hours", "ramp_out_hours"); err != nil {
		return err
	}
	var err error
	if ev.Start, err = d.reqDate(m, path, "start"); err != nil {
		return err
	}
	if ev.End, err = d.reqDate(m, path, "end"); err != nil {
		return err
	}
	f, line, ok, err := d.float(m, path, "factor")
	if err != nil {
		return err
	}
	if !ok {
		return d.errf(m.line, joinPath(path, "factor"), "required (volume multiplier at full effect)")
	}
	if f < 0 {
		return d.errf(line, joinPath(path, "factor"), "must not be negative, got %g", f)
	}
	ev.Factor = f
	names, lines, ok, err := d.strings(m, path, "classes")
	if err != nil {
		return err
	}
	if ok {
		for i, n := range names {
			class, known := knownClasses[n]
			if !known {
				return d.errf(lines[i], fmt.Sprintf("%s.classes[%d]", path, i), "unknown traffic class %q", n)
			}
			ev.Classes = append(ev.Classes, class)
		}
	}
	for key, dst := range map[string]*time.Duration{"ramp_in_hours": &ev.RampIn, "ramp_out_hours": &ev.RampOut} {
		if v, line, ok, err := d.int(m, path, key); err != nil {
			return err
		} else if ok {
			if v < 0 {
				return d.errf(line, joinPath(path, key), "must not be negative, got %d", v)
			}
			*dst = time.Duration(v) * time.Hour
		}
	}
	return nil
}

func (d *decoder) decodeOutage(m *node, path string, ev *Event) error {
	if err := d.strictKeys(m, path, "type", "start", "end", "residual", "vantage_points"); err != nil {
		return err
	}
	var err error
	if ev.Start, err = d.reqDate(m, path, "start"); err != nil {
		return err
	}
	if ev.End, err = d.reqDate(m, path, "end"); err != nil {
		return err
	}
	if v, line, ok, err := d.float(m, path, "residual"); err != nil {
		return err
	} else if ok {
		if v < 0 || v > 1 {
			return d.errf(line, joinPath(path, "residual"), "must be within [0, 1], got %g", v)
		}
		ev.Residual = v
	}
	vps := knownVPs()
	names, lines, ok, err := d.strings(m, path, "vantage_points")
	if err != nil {
		return err
	}
	if ok {
		for i, n := range names {
			vp, known := vps[n]
			if !known {
				return d.errf(lines[i], fmt.Sprintf("%s.vantage_points[%d]", path, i),
					"unknown vantage point %q (have %s)", n, vpNames())
			}
			if j := slices.Index(ev.VPs, vp); j >= 0 {
				return d.errf(lines[i], fmt.Sprintf("%s.vantage_points[%d]", path, i),
					"duplicate vantage point %q (also item %d)", n, j)
			}
			ev.VPs = append(ev.VPs, vp)
		}
	}
	return nil
}

func (d *decoder) decodeReturn(m *node, path string, ev *Event) error {
	if err := d.strictKeys(m, path, "type", "start", "retained"); err != nil {
		return err
	}
	var err error
	if ev.Start, err = d.reqDate(m, path, "start"); err != nil {
		return err
	}
	if v, line, ok, err := d.float(m, path, "retained"); err != nil {
		return err
	} else if ok {
		if v < 0 || v > 1 {
			return d.errf(line, joinPath(path, "retained"), "must be within [0, 1], got %g", v)
		}
		ev.Retained = &v
	}
	return nil
}

// crossValidate checks constraints spanning several events: wave ordering
// and overlap, overlay-only keys on the primary wave, per-vantage-point
// outage overlap, and end/start consistency.
func (d *decoder) crossValidate(s *Scenario) error {
	var waves []Event
	outages := map[synth.VantagePoint][]Event{}
	for i, ev := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		switch ev.Type {
		case EventLockdownWave:
			if len(waves) == 0 {
				// The primary wave re-parametrises the built-in
				// per-component responses, which carry their own decay
				// and retention; overlay-only keys would be ignored.
				for key, bad := range map[string]bool{
					"decay_start": !ev.DecayStart.IsZero(),
					"end":         !ev.End.IsZero(),
					"retained":    ev.Retained != nil,
				} {
					if bad {
						return d.errf(ev.Line, joinPath(path, key),
							"only overlay waves (the second wave onwards) support this; the primary wave uses the built-in per-component decay")
					}
				}
			} else {
				prev := waves[len(waves)-1]
				prevFull := prev.Start.AddDate(0, 0, prev.RampDays)
				if ev.Start.Before(prevFull) {
					return d.errf(ev.Line, joinPath(path, "start"),
						"wave starting %s overlaps the previous wave (line %d, ramping until %s)",
						ev.Start.Format("2006-01-02"), prev.Line, prevFull.Format("2006-01-02"))
				}
			}
			full := ev.Start.AddDate(0, 0, ev.RampDays)
			if !ev.DecayStart.IsZero() && ev.DecayStart.Before(full) {
				return d.errf(ev.Line, joinPath(path, "decay_start"),
					"decay cannot start before the ramp completes (%s)", full.Format("2006-01-02"))
			}
			if !ev.End.IsZero() {
				ref := full
				if !ev.DecayStart.IsZero() {
					ref = ev.DecayStart
				}
				if !ev.End.After(ref) {
					return d.errf(ev.Line, joinPath(path, "end"), "must be after %s", ref.Format("2006-01-02"))
				}
			}
			waves = append(waves, ev)
		case EventFlashEvent, EventLinkOutage:
			if !ev.End.After(ev.Start) {
				return d.errf(ev.Line, joinPath(path, "end"), "must be after start (%s)", ev.Start.Format("2006-01-02"))
			}
			if ev.Type == EventFlashEvent {
				if ev.RampIn+ev.RampOut > ev.End.Sub(ev.Start) {
					return d.errf(ev.Line, joinPath(path, "ramp_in_hours"),
						"ramps longer than the event window")
				}
				continue
			}
			vps := ev.VPs
			if len(vps) == 0 {
				vps = synth.AllVantagePoints()
			}
			for _, vp := range vps {
				for _, prev := range outages[vp] {
					if ev.Start.Before(prev.End) && prev.Start.Before(ev.End) {
						return d.errf(ev.Line, joinPath(path, "start"),
							"outage overlaps the one on line %d at %q", prev.Line, vp)
					}
				}
				outages[vp] = append(outages[vp], ev)
			}
		}
	}
	return nil
}

func vpNames() string {
	var names []string
	for _, vp := range synth.AllVantagePoints() {
		names = append(names, string(vp))
	}
	return strings.Join(names, ", ")
}

func eventTypeNames() string {
	return strings.Join([]string{
		string(EventLockdownWave), string(EventHoliday), string(EventFlashEvent),
		string(EventLinkOutage), string(EventReturnToOffice),
	}, ", ")
}

func classNames() []string {
	names := make([]string, 0, len(knownClasses))
	for n := range knownClasses {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
