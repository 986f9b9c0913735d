package hohtx

import (
	"reflect"
	"strings"
	"testing"

	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/list"
	"hohtx/internal/skiplist"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// built is what a constructed structure shows of the configuration it was
// built from.
type built struct {
	name    string // the link's label, wrapper suffix ("/hash", "/map") cut
	profile stm.Profile
	window  core.Window
	threads int
	policy  arena.Policy
}

// named is the one method the probe needs of a structure.
type named = interface{ Name() string }

// probe reads a built structure's resolved configuration out of its
// unexported fields: the structures offer no accessor for most of it, and
// the tests below are about exactly what no caller can see — which defaults
// a constructor filled in and what the public Config was translated to.
func probe(t *testing.T, s named) built {
	t.Helper()
	v := reflect.Indirect(reflect.ValueOf(s))
	if !v.FieldByName("RT").IsValid() {
		// Every structure embeds the chassis (reclaim.Chassis) but the one
		// wrapper: Map.t.
		v = reflect.Indirect(field(t, v, "t"))
	}
	prof := field(t, field(t, v, "RT").Elem(), "prof")
	win := field(t, v, "win")
	name, _, _ := strings.Cut(s.Name(), "/")
	return built{
		name: name,
		profile: stm.Profile{
			Capacity:    int(field(t, prof, "Capacity").Int()),
			MaxAttempts: int(field(t, prof, "MaxAttempts").Int()),
		},
		window: core.Window{
			W:         int(field(t, win, "W").Int()),
			NoScatter: field(t, win, "NoScatter").Bool(),
		},
		threads: field(t, v, "ops").Len(),
		policy:  arena.Policy(field(t, field(t, field(t, v, "Ar").Elem(), "cfg"), "Policy").Uint()),
	}
}

// field returns v's field name, and fails the test naming both when v has
// no such field (a renamed or deleted field), where reflect would panic.
func field(t *testing.T, v reflect.Value, name string) reflect.Value {
	t.Helper()
	f := v.FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%s has no field %s: update probe to the structure's layout", v.Type(), name)
	}
	return f
}

// resolved is p as stm.NewRuntime stores it.
func resolved(p stm.Profile) stm.Profile {
	return stm.NewRuntime(p).Profile()
}

// knobs are the Config fields TestConfigDefaults sets. Each package's Config
// is filled in under that package's own name, so the table also compiles
// against a tree in which the three are distinct types.
type knobs struct {
	kind    core.Kind
	threads int
	win     core.Window
	prof    stm.Profile
	policy  arena.Policy
}

func (k knobs) list() list.Config {
	return list.Config{RRKind: k.kind, Threads: k.threads, Window: k.win,
		Profile: k.prof, ArenaPolicy: k.policy}
}

func (k knobs) tree() tree.Config {
	return tree.Config{RRKind: k.kind, Threads: k.threads, Window: k.win,
		Profile: k.prof, ArenaPolicy: k.policy}
}

func (k knobs) skip() skiplist.Config {
	return skiplist.Config{RRKind: k.kind, Threads: k.threads, Window: k.win,
		Profile: k.prof, ArenaPolicy: k.policy}
}

// TestConfigDefaults pins what a structure's constructor makes of the
// fields its Config leaves zero: the paper's list setting (serial fallback
// after 2 attempts, W = 8) for the three list-based structures, the tree
// setting (8 attempts, W = 16) for the trees, the map and the skiplist.
func TestConfigDefaults(t *testing.T) {
	families := []struct {
		name     string
		attempts int
		w        int
		build    func(knobs) named
	}{
		{"singly", 2, 8, func(k knobs) named { return list.New(k.list()) }},
		{"doubly", 2, 8, func(k knobs) named { return list.NewDoubly(k.list()) }},
		{"hash", 2, 8, func(k knobs) named { return list.NewHashTable(k.list(), 8) }},
		{"itree", 8, 16, func(k knobs) named { return tree.NewInternal(k.tree()) }},
		{"etree", 8, 16, func(k knobs) named { return tree.NewExternal(k.tree()) }},
		{"map", 8, 16, func(k knobs) named { return tree.NewMap(k.tree()) }},
		{"skip", 8, 16, func(k knobs) named { return skiplist.New(k.skip()) }},
	}
	for _, f := range families {
		htm := stm.HTMProfile(f.attempts)
		kind := core.Kind(0).String() // the zero RRKind
		dflt := built{kind, resolved(htm), core.Window{W: f.w}, 8, arena.PolicyLocal}
		for _, c := range []struct {
			what string
			set  knobs
			want built
		}{
			{"zero Config", knobs{}, dflt},
			{"Threads below one", knobs{threads: -3}, dflt},
			{"a caller's Profile", knobs{prof: stm.Profile{MaxAttempts: 5}},
				built{kind, resolved(stm.Profile{MaxAttempts: 5}), core.Window{W: f.w}, 8, arena.PolicyLocal}},
			{"everything set", knobs{core.KindSA, 3, core.Window{W: 5, NoScatter: true},
				stm.Profile{MaxAttempts: 7}, arena.PolicyShared},
				built{"RR-SA", resolved(stm.Profile{MaxAttempts: 7}), core.Window{W: 5, NoScatter: true}, 3, arena.PolicyShared}},
		} {
			if got := probe(t, f.build(c.set)); got != c.want {
				t.Errorf("%s, %s:\n got %+v\nwant %+v", f.name, c.what, got, c.want)
			}
		}
	}
}

// TestPublicConfigMapping pins the translation of the public Config: every
// constructor hands every field on, the same way, and a zero Window is the
// family table's tuned window at the thread count.
func TestPublicConfigMapping(t *testing.T) {
	mk := map[string]func(Config) named{
		"map": func(c Config) named { return NewOrderedMap(c) },
	}
	for name, build := range constructors() {
		mk[name] = func(c Config) named { return build(c) }
	}
	set := Config{
		Threads: 3, Reservation: RRDirectMapped, Window: 5, NoScatter: true,
		SharedPool: true, SerialAfter: 4,
	}
	want := built{"RR-DM", resolved(stm.HTMProfile(4)), core.Window{W: 5, NoScatter: true}, 3, arena.PolicyShared}
	for name, build := range mk {
		if got := probe(t, build(set)); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		// And nothing is set that was not asked for: the zero Config is the
		// structure's own defaults, whose 8 threads take the lists' window 8
		// and the trees' 16; at 2 threads the tuned windows are 64 and 32.
		attempts, w8, w2 := 8, 16, 32
		if name == "list" || name == "dlist" || name == "hash" {
			attempts, w8, w2 = 2, 8, 64
		}
		for _, c := range []struct {
			cfg  Config
			want built
		}{
			{Config{}, built{"RR-V", resolved(stm.HTMProfile(attempts)), core.Window{W: w8}, 8, arena.PolicyLocal}},
			{Config{Threads: 2}, built{"RR-V", resolved(stm.HTMProfile(attempts)), core.Window{W: w2}, 2, arena.PolicyLocal}},
		} {
			if got := probe(t, build(c.cfg)); got != c.want {
				t.Errorf("%s, %+v:\n got %+v\nwant %+v", name, c.cfg, got, c.want)
			}
		}
	}
}
