package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/render"
)

// replay runs the first n steps of each reader stream through one binding,
// one session at a time, and returns every rendered window.
func replay(s *system, tcp bool, w workloadDef, nw *network, seed int64, n int) ([]string, error) {
	var out []string
	var cur obs.SpanContext
	for i := 0; i < w.users; i++ {
		st := newStream(seed, i, w.pan, nw.area)
		for done := 0; done < n; {
			v := st.next()
			sess, closeFn, err := s.open(v.ctx, tcp, &cur)
			if err != nil {
				return nil, err
			}
			if err := sess.Connect(); err != nil {
				closeFn()
				return nil, err
			}
			u := &user{sess: sess, net: nw}
			for _, stp := range v.steps {
				if done == n {
					break
				}
				done++
				win, want, _, err := u.do(stp)
				switch {
				case err != nil:
					closeFn()
					return nil, fmt.Errorf("replay %s step %d: %w", stp.op, done, err)
				case win == nil:
					out = append(out, "(nothing to pick)\n")
				case win.Name != want:
					closeFn()
					return nil, fmt.Errorf("replay %s step %d: window %q, want %q", stp.op, done, win.Name, want)
				default:
					out = append(out, render.Text(win))
				}
			}
			closeFn()
		}
	}
	return out, nil
}

// transparency replays the streams' first n steps over TCP and in-process
// and requires byte-identical windows (§3.5: customization is transparent to
// the integration style). With want set, the TCP windows must also equal
// want, the windows another assembly rendered for the same database state.
func transparency(s *system, w workloadDef, nw *network, seed int64, n int, want []string) error {
	remote, err := replay(s, true, w, nw, seed, n)
	if err != nil {
		return err
	}
	local, err := replay(s, false, w, nw, seed, n)
	if err != nil {
		return err
	}
	if err := sameWindows(remote, local, "TCP", "in-process"); err != nil {
		return err
	}
	if want != nil {
		return sameWindows(remote, want, "traced", "untraced")
	}
	return nil
}

func sameWindows(a, b []string, an, bn string) error {
	if len(a) != len(b) {
		return fmt.Errorf("transparency mismatch: %s rendered %d windows, %s %d", an, len(a), bn, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("transparency mismatch at step %d:\n--- %s\n%s--- %s\n%s", i+1,
				an, firstLines(a[i], 6), bn, firstLines(b[i], 6))
		}
	}
	return nil
}

func firstLines(s string, n int) string {
	lines := strings.SplitAfter(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], "...\n")
	}
	return strings.Join(lines, "")
}

// verify reopens the database after the editor stopped and checks that every
// acknowledged edit survived: each live pole the editor inserted or moved
// holds the values of its last acknowledged transaction, and each pole it
// deleted is gone. It returns the number of checks, the number that failed,
// and the first failure.
func verify(path string, ed *editor) (checked, bad int, first error) {
	sys, err := core.Open(core.Config{Name: "GEO", Path: path})
	if err != nil {
		return 1, 1, fmt.Errorf("reopen: %w", err)
	}
	defer sys.Close()
	note := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	for oid, want := range ed.want {
		checked++
		in, err := sys.DB.GetValue(event.Context{}, oid)
		switch {
		case err != nil:
			note(fmt.Errorf("acknowledged pole %d: %w", oid, err))
		case valuesKey(in.Values) != want:
			note(fmt.Errorf("acknowledged pole %d holds %s, want %s", oid, valuesKey(in.Values), want))
		}
	}
	for oid := range ed.gone {
		checked++
		if _, err := sys.DB.GetValue(event.Context{}, oid); !errors.Is(err, geodb.ErrNoInstance) {
			note(fmt.Errorf("deleted pole %d still readable (err %v)", oid, err))
		}
	}
	return checked, bad, first
}
