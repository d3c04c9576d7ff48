package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// samples is one scrape of a Prometheus text exposition: the series as
// written (name plus label set, e.g. `netout_query_phase_seconds_sum{phase="plan"}`)
// to its value. Histograms need no special case: their _sum, _count and
// _bucket lines are series like any other.
type samples map[string]float64

func parseMetrics(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// sub returns s − before, series by series. A series absent from before
// counts from zero (a counter the server registered during the segment).
func (s samples) sub(before samples) samples {
	out := make(samples, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates o into s.
func (s samples) add(o samples) {
	for k, v := range o {
		s[k] += v
	}
}

// sumPrefix adds every series whose text starts with prefix, so a family
// can be summed over a label (`netout_plan_decisions_total{`).
func (s samples) sumPrefix(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// labelValues lists the values one label takes across a family, e.g. every
// phase of `netout_query_phase_seconds_sum{phase="…"}`.
func (s samples) labelValues(family, label string) []string {
	var out []string
	open := family + "{" + label + `="`
	for k := range s {
		if strings.HasPrefix(k, open) && strings.HasSuffix(k, `"}`) {
			out = append(out, k[len(open):len(k)-2])
		}
	}
	return out
}

// heapStats are the runtime.MemStats fields the heap profile's debug=1 text
// carries in its trailer.
type heapStats struct {
	TotalAlloc, Mallocs, NumGC float64
}

func parseHeap(r io.Reader) (heapStats, error) {
	var h heapStats
	want := map[string]*float64{"TotalAlloc": &h.TotalAlloc, "Mallocs": &h.Mallocs, "NumGC": &h.NumGC}
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "#" || f[2] != "=" {
			continue
		}
		if dst, ok := want[f[1]]; ok {
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return h, fmt.Errorf("heap profile %s: %w", f[1], err)
			}
			*dst = v
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if found != len(want) {
		return h, fmt.Errorf("heap profile trailer has %d of %d wanted fields", found, len(want))
	}
	return h, nil
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func get[T any](url string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zero, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	v, err := parse(resp.Body)
	if err != nil {
		return zero, fmt.Errorf("GET %s: %w", url, err)
	}
	return v, nil
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux configuration Go runs on.
const clockTick = 100

// procCPUSeconds reads utime+stime of a process from the text of its
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func procCPUSeconds(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat text %q", stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat times %q %q", f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSSMiB reads VmHWM from the text of /proc/<pid>/status.
func procPeakRSSMiB(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
