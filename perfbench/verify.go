package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"frappe"
	"frappe/internal/core"
	"frappe/internal/crawler"
	"frappe/internal/graphapi"
	"frappe/internal/lab"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
	"frappe/internal/wal"
	"frappe/internal/wot"
)

// Output checks, each made apart from the program's own path to the output
// it checks. perfbench's tests feed each one a deliberately broken output.

// servedVerdict is one /check answer as the client decoded it.
type servedVerdict struct {
	Status    int
	Malicious bool
	Score     float64
	Deleted   bool
}

// oracleVerdict is the verdict computed in-process from platform state.
type oracleVerdict struct {
	Deleted   bool
	Malicious bool
	Score     float64
	Err       error
}

// oracleRecord reads an app's four crawl surfaces — summary, feed,
// install, WOT — straight from the world's platform state, with no HTTP,
// no cache and no front door.
func oracleRecord(w *synth.World, id string) core.AppRecord {
	r := &crawler.Result{AppID: id, WOTScore: wot.UnknownScore}
	if app, err := w.Platform.Lookup(id); err != nil {
		r.SummaryErr, r.FeedErr = graphapi.ErrDeleted, graphapi.ErrDeleted
	} else {
		mau := 0
		if len(app.MAU) > 0 {
			mau = app.MAU[len(app.MAU)-1]
		}
		r.Summary = &graphapi.Summary{ID: app.ID, Name: app.Name, Description: app.Description,
			Company: app.Company, Category: app.Category,
			Link:               "https://www.facebook.com/apps/application.php?id=" + app.ID,
			MonthlyActiveUsers: mau}
		r.Feed = make([]graphapi.FeedPost, 0, len(app.ProfileFeed))
		for _, p := range app.ProfileFeed {
			r.Feed = append(r.Feed, graphapi.FeedPost{Message: p.Message, Link: p.Link, CreatedTime: p.Month})
		}
	}
	if info, err := w.Platform.InstallInfo(id); err != nil {
		r.InstallErr = graphapi.ErrDeleted
	} else {
		r.Install = graphapi.InstallInfo{AppID: info.AppID, ClientID: info.ClientID, RedirectURI: info.RedirectURI}
		if perms := strings.Join(info.Permissions, ","); perms != "" {
			r.Install.Permissions = strings.Split(perms, ",")
		}
		if d := wot.DomainOf(info.RedirectURI); d != "" {
			if score, err := w.WOT.Score(d); err == nil {
				r.WOTScore = score
			}
		}
	}
	return core.AppRecord{ID: id, Crawl: r}
}

// oracleAssess classifies oracleRecord(id) with clf.
func oracleAssess(w *synth.World, clf *frappe.Classifier, id string) oracleVerdict {
	v, err := clf.Classify(oracleRecord(w, id))
	switch {
	case errors.Is(err, core.ErrNotClassifiable):
		return oracleVerdict{Deleted: true, Malicious: true}
	case err != nil:
		return oracleVerdict{Err: err}
	}
	return oracleVerdict{Malicious: v.Malicious, Score: v.Score}
}

// accuracy counts served verdicts on live apps that match ground truth.
type accuracy struct{ live, correct int }

func (a accuracy) ratio() float64 { return ratio(float64(a.correct), float64(a.live)) }

// checkVerdicts compares every served verdict with the oracle's: scores
// must be bit-identical and a deleted app must have been a 404. It also
// requires accuracy against ground truth on live apps of at least floor.
func checkVerdicts(served map[string]servedVerdict, oracle func(string) oracleVerdict,
	truth func(string) bool, floor float64) ([]string, accuracy) {
	var problems []string
	var acc accuracy
	ids := make([]string, 0, len(served))
	for id := range served {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		got, want := served[id], oracle(id)
		switch {
		case want.Err != nil:
			problems = append(problems, fmt.Sprintf("oracle could not classify %s: %v", id, want.Err))
		case want.Deleted:
			if got.Status != 404 || !got.Deleted {
				problems = append(problems, fmt.Sprintf("app %s is deleted but was served status %d deleted=%v",
					id, got.Status, got.Deleted))
			}
		case got.Status != 200 || got.Deleted:
			problems = append(problems, fmt.Sprintf("app %s is live but was served status %d deleted=%v",
				id, got.Status, got.Deleted))
		case math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Malicious != want.Malicious:
			problems = append(problems, fmt.Sprintf("app %s served score %v malicious=%v, oracle %v malicious=%v",
				id, got.Score, got.Malicious, want.Score, want.Malicious))
		default:
			acc.live++
			if got.Malicious == truth(id) {
				acc.correct++
			}
		}
	}
	if acc.live > 0 && acc.ratio() < floor {
		problems = append(problems, fmt.Sprintf("accuracy on live apps %.4f is below the floor %.2f",
			acc.ratio(), floor))
	}
	return problems, acc
}

// monitorView is what a monitor shows its readers.
type monitorView struct {
	stats mypagekeeper.Stats
	apps  map[string]mypagekeeper.AppStats
}

func viewOf(m *mypagekeeper.Monitor) monitorView { return monitorView{m.Stats(), m.Apps()} }

// checkMonitor requires got to show what the generator's own monitor
// (want) shows, in both Stats() and Apps().
func checkMonitor(name string, want monitorView, got *mypagekeeper.Monitor) []string {
	var problems []string
	if gs := got.Stats(); gs != want.stats {
		problems = append(problems, fmt.Sprintf("%s monitor Stats() %+v, generator's %+v", name, gs, want.stats))
	}
	wa, ga := want.apps, got.Apps()
	if !reflect.DeepEqual(wa, ga) {
		diff := 0
		for id, s := range wa {
			if !reflect.DeepEqual(s, ga[id]) {
				diff++
			}
		}
		problems = append(problems, fmt.Sprintf("%s monitor Apps(): %d apps, generator's %d, %d differ",
			name, len(ga), len(wa), diff))
	}
	return problems
}

// checkLogsEqual requires the two logs to hold the same records, byte for
// byte: the re-ingested log must hold exactly the events fed.
func checkLogsEqual(want, got *wal.Log) error {
	if want.End() != got.End() {
		return fmt.Errorf("log holds %d records, %d were fed", got.End(), want.End())
	}
	wr, err := want.Reader(0)
	if err != nil {
		return err
	}
	defer wr.Close()
	gr, err := got.Reader(0)
	if err != nil {
		return err
	}
	defer gr.Close()
	for {
		wp, idx, werr := wr.Next()
		gp, _, gerr := gr.Next()
		if errors.Is(werr, io.EOF) && errors.Is(gerr, io.EOF) {
			return nil
		}
		if werr != nil || gerr != nil {
			return fmt.Errorf("reading record %d: %v / %v", idx, werr, gerr)
		}
		if !bytes.Equal(wp, gp) {
			return fmt.Errorf("record %d differs from the event fed", idx)
		}
	}
}

// checkCachedRun requires a re-run over the same lab store to be all hits
// and to render the cold report byte for byte.
func checkCachedRun(cold []byte, res *lab.Result) []string {
	var problems []string
	if res.Misses != 0 {
		problems = append(problems, fmt.Sprintf("cached pass had %d misses", res.Misses))
	}
	if got, ok := res.Artifact("report"); !ok || !bytes.Equal(got, cold) {
		problems = append(problems, "cached pass rendered a report that differs from the cold one")
	}
	return problems
}

var (
	dTotalRow  = regexp.MustCompile(`(?m)^\s*D-Total\s+(\d+) total`)
	dSampleRow = regexp.MustCompile(`(?m)^\s*D-Sample\s+(\d+)\s+(\d+)\s*$`)
)

// table1Counts parses Table 1's D-Total and malicious D-Sample counts.
func table1Counts(report string) (total, malicious int, err error) {
	m := dTotalRow.FindStringSubmatch(report)
	s := dSampleRow.FindStringSubmatch(report)
	if m == nil || s == nil {
		return 0, 0, fmt.Errorf("report has no Table 1 D-Total/D-Sample rows")
	}
	total, _ = strconv.Atoi(m[1])
	malicious, _ = strconv.Atoi(s[2])
	return total, malicious, nil
}

// monitorCounts derives D-Total and malicious D-Sample from a monitor the
// way §2.3 defines them: every app observed posting, and the apps with a
// flagged post that Social Bakers does not vouch for.
func monitorCounts(w *synth.World, m *mypagekeeper.Monitor) (total, malicious int) {
	apps := m.Apps()
	for id, st := range apps {
		if st.FlaggedPosts == 0 {
			continue
		}
		if _, err := w.SocialBakers.Rating(id); err != nil {
			malicious++
		}
	}
	return len(apps), malicious
}

// checkTable1 requires the report's Table 1 counts to equal the counts
// taken from the replayed monitor.
func checkTable1(report string, total, malicious int) []string {
	gotTotal, gotMal, err := table1Counts(report)
	if err != nil {
		return []string{err.Error()}
	}
	if gotTotal != total || gotMal != malicious {
		return []string{fmt.Sprintf("report Table 1 has D-Total %d, malicious D-Sample %d; the replayed monitor gives %d and %d",
			gotTotal, gotMal, total, malicious)}
	}
	return nil
}
