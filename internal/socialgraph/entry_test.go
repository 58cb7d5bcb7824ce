package socialgraph

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestEntryLayout pins the pointer layout of a like's two records. An
// activityRef holds no pointer, so activity chunks are allocated noscan,
// and a likeRef's one pointer is the liker's account record. A field
// that brings back a string, a slice, a map, an interface or a
// time.Time (its *Location) fails here, as does either entry outgrowing
// 40 bytes.
func TestEntryLayout(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(activityRef{}), nil},
		{reflect.TypeOf(likeRef{}), []string{"likeRef.acct"}},
	} {
		if got := pointerFields(tc.typ, tc.typ.Name()); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s pointer fields = %v, want %v", tc.typ.Name(), got, tc.want)
		}
		if size := tc.typ.Size(); size > 40 {
			t.Errorf("%s is %d bytes, want at most 40", tc.typ.Name(), size)
		}
	}
}

// pointerFields lists, by path, the parts of a value of type typ that
// the garbage collector must scan.
func pointerFields(typ reflect.Type, path string) []string {
	switch typ.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		if typ.Len() == 0 {
			return nil
		}
		return pointerFields(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return []string{path}
	default:
		return nil
	}
}

// TestEntryReadBack writes likes, a post and a comment whose times carry
// a non-UTC zone or a monotonic reading, and whose app IDs and source
// IPs include "". Every read API must return each time Equal to the one
// written, in UTC, and each attribution string unchanged.
func TestEntryReadBack(t *testing.T) {
	s := New(4, 0)
	zone := time.FixedZone("IST", 5*3600+1800)
	times := []time.Time{
		time.Date(2016, time.August, 1, 9, 30, 15, 123456789, zone),
		simclock.Real{}.Now(), // carries a monotonic reading
		time.Date(1969, time.December, 31, 23, 59, 59, 999999999, time.UTC),
		{},
	}
	metas := make([]WriteMeta, len(times))
	for i, at := range times {
		metas[i] = WriteMeta{AppID: []string{"app-1", "", "app-2", ""}[i], SourceIP: []string{"", "203.0.113.7", "::1", ""}[i], At: at}
	}
	author := s.CreateAccount("author", "IN", times[0])
	post, err := s.CreatePost(author.ID, "p", metas[1])
	if err != nil {
		t.Fatal(err)
	}
	likers := make([]string, len(metas))
	for i, m := range metas {
		likers[i] = s.CreateAccount(fmt.Sprintf("liker-%d", i), "IN", times[0]).ID
		if err := s.AddLike(likers[i], post.ID, m); err != nil {
			t.Fatal(err)
		}
	}
	comment, err := s.AddComment(likers[0], post.ID, "c", metas[2])
	if err != nil {
		t.Fatal(err)
	}

	same := func(what string, got, want WriteMeta) {
		t.Helper()
		if !got.At.Equal(want.At) || got.At.Location() != time.UTC || got.AppID != want.AppID || got.SourceIP != want.SourceIP {
			t.Errorf("%s read back %q/%q at %v (%v), want %q/%q at %v", what,
				got.AppID, got.SourceIP, got.At, got.At.Location(), want.AppID, want.SourceIP, want.At)
		}
	}
	likes := s.Likes(post.ID)
	page, _, _ := s.LikesPage(post.ID, 0, 0)
	if len(likes) != len(metas) || len(page) != len(metas) {
		t.Fatalf("Likes/LikesPage returned %d/%d likes, want %d", len(likes), len(page), len(metas))
	}
	for i, m := range metas {
		for _, l := range []Like{likes[i], page[i]} {
			if l.AccountID != likers[i] || l.ObjectID != post.ID {
				t.Errorf("like %d = %s on %s, want %s on %s", i, l.AccountID, l.ObjectID, likers[i], post.ID)
			}
			same(fmt.Sprintf("like %d", i), WriteMeta{AppID: l.AppID, SourceIP: l.SourceIP, At: l.At}, m)
		}
		log := s.ActivityLog(likers[i])
		want := []Activity{{ActorID: likers[i], Verb: VerbLike, ObjectID: post.ID, TargetID: author.ID}}
		if i == 0 {
			want = append(want, Activity{ActorID: likers[0], Verb: VerbComment, ObjectID: comment.ID, TargetID: author.ID})
		}
		if len(log) != len(want) {
			t.Fatalf("ActivityLog(liker %d) has %d entries, want %d", i, len(log), len(want))
		}
		for j, a := range log {
			w := want[j]
			if a.ActorID != w.ActorID || a.Verb != w.Verb || a.ObjectID != w.ObjectID || a.TargetID != w.TargetID {
				t.Errorf("ActivityLog(liker %d)[%d] = %+v, want %+v", i, j, a, w)
			}
		}
		same(fmt.Sprintf("like activity %d", i), WriteMeta{AppID: log[0].AppID, SourceIP: log[0].SourceIP, At: log[0].At}, m)
	}
	log := s.ActivityLog(likers[0])
	same("comment activity", WriteMeta{AppID: log[1].AppID, SourceIP: log[1].SourceIP, At: log[1].At}, metas[2])
	posted := s.ActivitySince(author.ID, times[1].Add(-time.Second))
	if len(posted) != 1 || posted[0].Verb != VerbPost || posted[0].ObjectID != post.ID || posted[0].TargetID != author.ID {
		t.Fatalf("ActivitySince(author) = %+v, want the post", posted)
	}
	same("post activity", WriteMeta{AppID: posted[0].AppID, SourceIP: posted[0].SourceIP, At: posted[0].At}, metas[1])
}
