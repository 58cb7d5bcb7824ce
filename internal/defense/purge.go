package defense

import (
	"repro/internal/socialgraph"
)

// PurgeReport quantifies a purge for operator review.
type PurgeReport struct {
	AccountsProcessed int
	LikesRemoved      int
	ObjectsTouched    int
}

// PurgeLikesReport removes every like the given accounts ever placed — the
// "removing fake likes" remediation online social networks apply after
// detecting reputation manipulation (the paper's ethics section notes
// Facebook removed all artifacts of the honeypot measurements) — and
// reports how many likes it removed from how many objects.
//
// The account's activity log intentionally retains the purged entries:
// remediation rewrites the public state, not the forensic record.
func PurgeLikesReport(store *socialgraph.Store, accountIDs []string) PurgeReport {
	report := PurgeReport{AccountsProcessed: len(accountIDs)}
	objects := make(map[string]bool)
	for _, id := range accountIDs {
		for _, act := range store.ActivityLog(id) {
			if act.Verb != socialgraph.VerbLike {
				continue
			}
			if err := store.RemoveLike(id, act.ObjectID); err == nil {
				report.LikesRemoved++
				objects[act.ObjectID] = true
			}
		}
	}
	report.ObjectsTouched = len(objects)
	return report
}
