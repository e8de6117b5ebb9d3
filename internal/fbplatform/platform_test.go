package fbplatform

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestPermissionCatalogSize(t *testing.T) {
	// The paper: permissions are "chosen from a pool of 64 permissions
	// pre-defined by Facebook".
	if len(PermissionCatalog) != 64 {
		t.Fatalf("catalogue size = %d, want 64", len(PermissionCatalog))
	}
	seen := map[string]bool{}
	for _, p := range PermissionCatalog {
		if p == "" {
			t.Error("empty permission name")
		}
		if seen[p] {
			t.Errorf("duplicate permission %q", p)
		}
		seen[p] = true
	}
}

func TestValidPermission(t *testing.T) {
	if !ValidPermission(PermPublishStream) {
		t.Error("publish_stream should be valid")
	}
	if ValidPermission("made_up_permission") {
		t.Error("unknown permission should be invalid")
	}
}

func newApp(id, name string) *App {
	return &App{ID: id, Name: name, Permissions: []string{PermPublishStream}}
}

func TestRegisterAndLookup(t *testing.T) {
	p := New(100)
	if p.Users() != 100 {
		t.Errorf("Users = %d", p.Users())
	}
	app := newApp("123", "Test App")
	if err := p.Register(app); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := p.Lookup("123")
	if err != nil || got.Name != "Test App" {
		t.Fatalf("Lookup: %v, %v", got, err)
	}
	if got.ClientID != "123" {
		t.Errorf("ClientID default = %q, want app ID", got.ClientID)
	}
	if _, err := p.Lookup("999"); !errors.Is(err, ErrAppNotFound) {
		t.Errorf("missing app err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	p := New(10)
	if err := p.Register(nil); err == nil {
		t.Error("nil app: want error")
	}
	if err := p.Register(&App{}); err == nil {
		t.Error("empty ID: want error")
	}
	if err := p.Register(&App{ID: "1", Permissions: []string{"bogus"}}); err == nil {
		t.Error("bad permission: want error")
	}
	if err := p.Register(newApp("1", "a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(newApp("1", "b")); err == nil {
		t.Error("duplicate ID: want error")
	}
}

func TestDeleteHidesFromPublicAPI(t *testing.T) {
	p := New(10)
	if err := p.Register(newApp("42", "Victim")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("42"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lookup("42"); !errors.Is(err, ErrAppDeleted) {
		t.Errorf("Lookup deleted: err = %v, want ErrAppDeleted", err)
	}
	// Internal access still works (the generator needs it).
	if _, err := p.App("42"); err != nil {
		t.Errorf("App(deleted) = %v, want ok", err)
	}
	if _, err := p.InstallInfo("42"); !errors.Is(err, ErrAppDeleted) {
		t.Errorf("InstallInfo deleted err = %v", err)
	}
	if err := p.Delete("nope"); !errors.Is(err, ErrAppNotFound) {
		t.Errorf("Delete missing err = %v", err)
	}
}

func TestInstallInfo(t *testing.T) {
	p := New(10)
	app := &App{
		ID:          "7",
		Name:        "Free Phone Calls",
		Permissions: []string{PermPublishStream, PermEmail},
		RedirectURI: "http://thenamemeans2.com/land",
		ClientID:    "8", // colluding redirect
	}
	if err := p.Register(app); err != nil {
		t.Fatal(err)
	}
	info, err := p.InstallInfo("7")
	if err != nil {
		t.Fatal(err)
	}
	if info.ClientID != "8" || info.AppID != "7" {
		t.Errorf("client/app = %q/%q", info.ClientID, info.AppID)
	}
	if len(info.Permissions) != 2 {
		t.Errorf("permissions = %v", info.Permissions)
	}
	// Returned slice must be a copy.
	info.Permissions[0] = "mutated"
	if app.Permissions[0] != PermPublishStream {
		t.Error("InstallInfo leaked internal slice")
	}
}

func TestMAUStats(t *testing.T) {
	a := &App{MAU: []int{5, 1, 9}}
	if a.MedianMAU() != 5 {
		t.Errorf("MedianMAU = %d, want 5", a.MedianMAU())
	}
	if a.MaxMAU() != 9 {
		t.Errorf("MaxMAU = %d, want 9", a.MaxMAU())
	}
	empty := &App{}
	if empty.MedianMAU() != 0 || empty.MaxMAU() != 0 {
		t.Error("empty MAU should report 0")
	}
}

func TestPromptFeedPiggybacking(t *testing.T) {
	p := New(10)
	if err := p.Register(newApp("100", "FarmVille")); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(newApp("666", "Scam App")); err != nil {
		t.Fatal(err)
	}
	post, err := p.PromptFeedPost("100", "666", 3, "WOW free credits", "http://offers5000credit.example.com", 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if post.AppID != "100" {
		t.Errorf("attributed app = %q, want the popular app", post.AppID)
	}
	if post.SourceAppID != "666" {
		t.Errorf("true source = %q", post.SourceAppID)
	}
	if !post.MaliciousLink {
		t.Error("malicious flag lost")
	}
	if _, err := p.PromptFeedPost("404", "666", 1, "", "", 0, false); err == nil {
		t.Error("unknown api_key: want error")
	}
}

func TestEachAndOrder(t *testing.T) {
	p := New(10)
	for i := 0; i < 5; i++ {
		if err := p.Register(newApp(fmt.Sprintf("id%d", i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	ids := p.AppIDs()
	if len(ids) != 5 || ids[0] != "id0" || ids[4] != "id4" {
		t.Errorf("AppIDs = %v", ids)
	}
	var visited []string
	p.Each(func(a *App) bool {
		visited = append(visited, a.ID)
		return len(visited) < 3
	})
	if len(visited) != 3 {
		t.Errorf("Each early-stop visited %d", len(visited))
	}
	if p.NumApps() != 5 {
		t.Errorf("NumApps = %d", p.NumApps())
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(10)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("app%d", i)
			if err := p.Register(newApp(id, "x")); err != nil {
				t.Errorf("Register %s: %v", id, err)
				return
			}
			if _, err := p.Lookup(id); err != nil {
				t.Errorf("Lookup %s: %v", id, err)
			}
			if i%2 == 0 {
				if err := p.Delete(id); err != nil {
					t.Errorf("Delete %s: %v", id, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if p.NumApps() != 20 {
		t.Errorf("NumApps = %d, want 20", p.NumApps())
	}
}

// TestConcurrentDeleteWhileReading is the regression test for the Deleted
// race: the read API used to hand out the registry's own *App, so Lookup's
// Deleted check and InstallInfo/MAU/ProfileFeed reads raced Delete's write.
// With snapshot copies this passes under -race; on the old code it fails.
func TestConcurrentDeleteWhileReading(t *testing.T) {
	p := New(10)
	const apps = 8
	for i := 0; i < apps; i++ {
		a := newApp(fmt.Sprintf("app%d", i), "x")
		a.MAU = []int{10, 20, 30}
		a.ProfileFeed = []ProfilePost{{Message: "hello", Month: 1}}
		a.RedirectURI = "http://site.example/land"
		if err := p.Register(a); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("app%d", i%apps)
				if app, err := p.Lookup(id); err == nil {
					_ = app.Deleted
					_ = app.MedianMAU()
					for range app.ProfileFeed {
					}
				}
				if info, err := p.InstallInfo(id); err == nil {
					_ = info.Permissions
				}
				if app, err := p.App(id); err == nil {
					_ = app.MaxMAU()
				}
				p.Each(func(a *App) bool { _ = a.Deleted; return true })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		// Keep writing Deleted for the whole workout (re-deleting is a
		// write of the same value — still a race against unlocked reads).
		for i := 0; i < 500; i++ {
			if err := p.Delete(fmt.Sprintf("app%d", i%apps)); err != nil {
				t.Errorf("Delete: %v", err)
			}
		}
	}()
	close(start)
	wg.Wait()
	for i := 0; i < apps; i++ {
		if _, err := p.Lookup(fmt.Sprintf("app%d", i)); err != ErrAppDeleted {
			t.Errorf("app%d: Lookup err = %v, want ErrAppDeleted", i, err)
		}
	}
}

// TestReadAPISnapshots pins the snapshot contract: mutating a returned
// *App (or its slices) must not leak into the registry.
func TestReadAPISnapshots(t *testing.T) {
	p := New(10)
	a := newApp("snap", "Original")
	a.MAU = []int{5}
	if err := p.Register(a); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := p.App("snap")
	if err != nil {
		t.Fatalf("App: %v", err)
	}
	got.Name = "Mutated"
	got.Permissions[0] = "bogus"
	got.MAU[0] = 999
	got.Deleted = true

	again, err := p.Lookup("snap")
	if err != nil {
		t.Fatalf("Lookup after caller mutation: %v", err)
	}
	if again.Name != "Original" || again.Permissions[0] != PermPublishStream || again.MAU[0] != 5 {
		t.Errorf("registry state leaked through snapshot: %+v", again)
	}
}

// TestProfile: Profile applies Lookup's visibility rules and copies the
// summary fields, the latest MAU sample and, as strings.SplitN counts,
// the whole feed for posts < 0, none for 0 and at most N for N > 0. The
// posts it returns are the caller's own.
func TestProfile(t *testing.T) {
	p := New(10)
	a := newApp("7", "Seven")
	a.Description, a.Company, a.Category = "d", "c", "Games"
	a.MAU = []int{3, 9, 4}
	a.ProfileFeed = []ProfilePost{{Message: "a", Month: 1}, {Message: "b", Link: "http://b.example/", Month: 2}, {Message: "c"}}
	if err := p.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(newApp("8", "Gone")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("8"); err != nil {
		t.Fatal(err)
	}
	for posts, want := range map[int]int{-1: 3, 0: 0, 1: 1, 2: 2, 3: 3, 9: 3} {
		prof, err := p.Profile("7", posts)
		if err != nil {
			t.Fatal(err)
		}
		if prof.ID != "7" || prof.Name != "Seven" || prof.Description != "d" || prof.Company != "c" || prof.Category != "Games" || prof.MAU != 4 {
			t.Errorf("Profile(7, %d) = %+v", posts, prof)
		}
		if !reflect.DeepEqual(prof.Feed, a.ProfileFeed[:want]) && !(want == 0 && len(prof.Feed) == 0) {
			t.Errorf("Profile(7, %d) feed = %+v, want the first %d posts", posts, prof.Feed, want)
		}
	}
	prof, _ := p.Profile("7", -1)
	prof.Feed[0].Message = "mutated"
	if again, _ := p.Profile("7", 1); again.Feed[0].Message != "a" {
		t.Errorf("a caller's mutation reached the registry: %+v", again.Feed)
	}
	if _, err := p.Profile("8", 1); err != ErrAppDeleted {
		t.Errorf("Profile(deleted) err = %v, want ErrAppDeleted", err)
	}
	if _, err := p.Profile("404", 1); err != ErrAppNotFound {
		t.Errorf("Profile(unknown) err = %v, want ErrAppNotFound", err)
	}
}
