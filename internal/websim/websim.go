// Package websim simulates the Knowledge-Vault-style web corpus the paper's
// large-scale experiments run on (§5.3-5.4): a typed knowledge base (the
// Freebase stand-in), websites with heterogeneous accuracy and popularity,
// Zipf-skewed page and triple counts (the long tails of Figure 5), sixteen
// extractors with per-pattern quality and realistic error modes (wrong
// values, failed entity reconciliation, type violations), confidence scores
// of mixed calibration, and a hyperlink graph whose popularity is decoupled
// from accuracy (gossip sites vs. accurate tail sites, §5.4.1).
//
// Everything the paper's evaluation needs is retained as ground truth: the
// full fact store, per-site true accuracy, per-triple provenance, and the
// partial KB view used for LCWA gold labels.
package websim

import (
	"fmt"

	"kbt/internal/kb"
	"kbt/internal/pagerank"
	"kbt/internal/stats"
	"kbt/internal/triple"
)

// SiteKind classifies the simulated websites.
type SiteKind int

const (
	// Normal sites draw accuracy from a Beta peaked near 0.8 (Figure 7).
	Normal SiteKind = iota
	// Gossip sites are popular but inaccurate (high PageRank, low KBT —
	// the top-left corner of Figure 10).
	Gossip
	// TailQuality sites are accurate but unpopular (low PageRank, high
	// KBT — the bottom-right corner of Figure 10).
	TailQuality
	// TrivialHeavy sites mostly state trivial facts (the "non-trivialness"
	// criterion of §5.4.1).
	TrivialHeavy
)

func (k SiteKind) String() string {
	switch k {
	case Gossip:
		return "gossip"
	case TailQuality:
		return "tail-quality"
	case TrivialHeavy:
		return "trivial-heavy"
	default:
		return "normal"
	}
}

// Params sizes the corpus. DefaultParams gives a laptop-scale corpus with
// the paper's statistical shape; Scale multiplies the size knobs.
type Params struct {
	// NumSites is the number of websites.
	NumSites int
	// EntitiesPerType sizes the KB entity pools.
	EntitiesPerType int
	// MaxPagesPerSite bounds the Zipf-distributed page counts.
	MaxPagesPerSite int
	// MaxTriplesPerPage bounds the Zipf-distributed per-page triple counts.
	MaxTriplesPerPage int
	// NumExtractors is the number of extraction systems (paper: 16).
	NumExtractors int
	// KBCoverage is the probability a true (s,p) pair is visible to the
	// LCWA gold-labeller (Freebase is incomplete; the paper could label 26%
	// of its triples).
	KBCoverage float64
	// GossipFrac, TailFrac, TrivialFrac apportion the site kinds.
	GossipFrac, TailFrac, TrivialFrac float64
	// LinksPerSite is the mean out-degree of the hyperlink graph.
	LinksPerSite int
	// Seed drives all randomness.
	Seed int64
}

// DefaultParams returns a corpus that runs in well under a second. The
// entity pool is kept small relative to the page count so that data items
// are provided by several independent sites — the redundancy the inference
// leverages (§1: "we leverage the redundancy of information on the web").
func DefaultParams() Params {
	return Params{
		NumSites:          80,
		EntitiesPerType:   36,
		MaxPagesPerSite:   48,
		MaxTriplesPerPage: 30,
		NumExtractors:     16,
		KBCoverage:        0.45,
		GossipFrac:        0.05,
		TailFrac:          0.10,
		TrivialFrac:       0.06,
		LinksPerSite:      6,
		Seed:              1,
	}
}

// Scale multiplies the corpus size by f (sites, entities, pages).
func (p Params) Scale(f float64) Params {
	mul := func(n int) int {
		m := int(float64(n) * f)
		if m < 1 {
			m = 1
		}
		return m
	}
	p.NumSites = mul(p.NumSites)
	p.EntitiesPerType = mul(p.EntitiesPerType)
	p.MaxPagesPerSite = mul(p.MaxPagesPerSite)
	return p
}

// Site is one simulated website with its ground truth.
type Site struct {
	Name string
	Kind SiteKind
	// Accuracy is the generative accuracy; Empirical is the realised
	// fraction of provided triples that are true.
	Accuracy, Empirical float64
	// Popularity is the latent popularity weight that shapes inlinks.
	Popularity float64
	// Topic is the site's entity type focus.
	Topic string
	// Pages and Provided count the site's URLs and provided triples.
	Pages, Provided int
}

// ExtractorProfile is the generative quality of one extraction system.
type ExtractorProfile struct {
	Name string
	// SiteCoverage is the fraction of sites the extractor processes.
	SiteCoverage float64
	// Recall is the base probability of extracting a provided triple.
	Recall float64
	// ErrorRate is the base probability an extraction is corrupted.
	ErrorRate float64
	// Confident reports whether the extractor emits confidence scores.
	Confident bool
	// Patterns lists the extractor's pattern names per predicate.
	Patterns map[string][]string
}

// World is the generated corpus plus all ground truth.
type World struct {
	Params  Params
	Dataset *triple.Dataset
	// KB is the partial Freebase view used for gold labels.
	KB *kb.KB
	// Sites lists all websites; SiteIndex maps name to index.
	Sites     []Site
	SiteIndex map[string]int
	// Graph is the hyperlink graph over websites.
	Graph *pagerank.Graph
	// Extractors lists the extraction systems.
	Extractors []ExtractorProfile
	// TrivialPredicates marks predicates whose facts are trivial (low
	// object variety), for the §5.4.1 rater.
	TrivialPredicates map[string]bool
	// TrueFacts is the complete ground truth: item key -> true object.
	// (KB sees only a KBCoverage fraction of it.)
	TrueFacts map[string]string
	// TopicOfSubject maps each entity to its type/topic.
	TopicOfSubject map[string]string
}

type predicateSpec struct {
	kb.Predicate
	trivial bool
	// trivialValues, for trivial predicates, is the tiny value vocabulary.
	trivialValues []string
}

// schema returns the simulated predicate vocabulary across entity types.
func schema() []predicateSpec {
	return []predicateSpec{
		{Predicate: kb.Predicate{Name: "nationality", SubjectType: "person", ObjectType: "place", Functional: true}},
		{Predicate: kb.Predicate{Name: "birth_place", SubjectType: "person", ObjectType: "place", Functional: true}},
		{Predicate: kb.Predicate{Name: "profession", SubjectType: "person", ObjectType: "profession", Functional: true}},
		{Predicate: kb.Predicate{Name: "weight_lbs", SubjectType: "person", Numeric: true, Min: 60, Max: 1000, Functional: true}},
		{Predicate: kb.Predicate{Name: "director", SubjectType: "film", ObjectType: "person", Functional: true}},
		{Predicate: kb.Predicate{Name: "release_year", SubjectType: "film", Numeric: true, Min: 1890, Max: 2030, Functional: true},
			trivial: false},
		{Predicate: kb.Predicate{Name: "language", SubjectType: "film", ObjectType: "lang", Functional: true},
			trivial: true, trivialValues: []string{"lang_en", "lang_hi", "lang_fr"}},
		{Predicate: kb.Predicate{Name: "hq_location", SubjectType: "org", ObjectType: "place", Functional: true}},
		{Predicate: kb.Predicate{Name: "founded_year", SubjectType: "org", Numeric: true, Min: 1700, Max: 2030, Functional: true}},
		{Predicate: kb.Predicate{Name: "author", SubjectType: "book", ObjectType: "person", Functional: true}},
		{Predicate: kb.Predicate{Name: "page_count", SubjectType: "book", Numeric: true, Min: 10, Max: 5000, Functional: true}},
		{Predicate: kb.Predicate{Name: "format", SubjectType: "book", ObjectType: "format", Functional: true},
			trivial: true, trivialValues: []string{"fmt_paper", "fmt_hard"}},
	}
}

var subjectTypes = []string{"person", "film", "org", "book"}

// Generate builds the corpus.
func Generate(p Params) (*World, error) {
	if p.NumSites < 1 || p.EntitiesPerType < 4 || p.NumExtractors < 1 {
		return nil, fmt.Errorf("websim: sizes too small")
	}
	if p.MaxPagesPerSite < 1 || p.MaxTriplesPerPage < 1 {
		return nil, fmt.Errorf("websim: page/triple bounds must be positive")
	}
	if p.KBCoverage < 0 || p.KBCoverage > 1 {
		return nil, fmt.Errorf("websim: KBCoverage out of [0,1]")
	}

	rng := stats.NewRNG(p.Seed)
	w := &World{
		Params:            p,
		Dataset:           triple.NewDataset(),
		KB:                kb.New(),
		SiteIndex:         make(map[string]int),
		Graph:             pagerank.NewGraph(),
		TrivialPredicates: make(map[string]bool),
		TrueFacts:         make(map[string]string),
		TopicOfSubject:    make(map[string]string),
	}

	specs := schema()
	gen := &generator{p: p, w: w, specs: specs}
	gen.buildEntities(rng.Fork(1))
	gen.buildFacts(rng.Fork(2))
	gen.buildSites(rng.Fork(3))
	gen.buildPagesAndTriples(rng.Fork(4))
	gen.buildLinks(rng.Fork(5))
	gen.buildExtractors(rng.Fork(6))
	gen.extract(rng.Fork(7))
	return w, nil
}

type generator struct {
	p     Params
	w     *World
	specs []predicateSpec

	entities map[string][]string // type -> entity names
	// predsOfType indexes the specs applicable to each subject type.
	predsOfType map[string][]int
	// providedPages[site] lists each page's provided triples.
	provided []providedTriple
}

type providedTriple struct {
	site, page         int
	subj, pred, obj    string
	isTrue             bool
	subjTopic, trivial bool
}

func (g *generator) buildEntities(rng *stats.RNG) {
	g.entities = make(map[string][]string)
	objectTypes := []string{"place", "profession", "lang", "format"}
	for _, t := range subjectTypes {
		for i := 0; i < g.p.EntitiesPerType; i++ {
			name := fmt.Sprintf("%s_%04d", t, i)
			g.entities[t] = append(g.entities[t], name)
			g.w.KB.AddEntity(name, kb.Type(t))
			g.w.TopicOfSubject[name] = t
		}
	}
	for _, t := range objectTypes {
		n := g.p.EntitiesPerType
		if t == "profession" {
			n = 20
		}
		if t == "lang" {
			n = 3
		}
		if t == "format" {
			n = 2
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s_%04d", t, i)
			if t == "lang" || t == "format" {
				// Keep the trivial vocabularies aligned with the schema.
				continue
			}
			g.entities[t] = append(g.entities[t], name)
			g.w.KB.AddEntity(name, kb.Type(t))
		}
	}
	for _, v := range []string{"lang_en", "lang_hi", "lang_fr"} {
		g.entities["lang"] = append(g.entities["lang"], v)
		g.w.KB.AddEntity(v, "lang")
	}
	for _, v := range []string{"fmt_paper", "fmt_hard"} {
		g.entities["format"] = append(g.entities["format"], v)
		g.w.KB.AddEntity(v, "format")
	}

	g.predsOfType = make(map[string][]int)
	for i, sp := range g.specs {
		st := string(sp.SubjectType)
		g.predsOfType[st] = append(g.predsOfType[st], i)
		if sp.trivial {
			g.w.TrivialPredicates[sp.Name] = true
		}
	}
	for _, sp := range g.specs {
		if err := g.w.KB.AddPredicate(sp.Predicate); err != nil {
			panic("websim: schema: " + err.Error())
		}
	}
}

// trueObject draws the ground-truth object for (subject, spec).
func (g *generator) trueObject(rng *stats.RNG, sp predicateSpec) string {
	if sp.Numeric {
		span := sp.Max - sp.Min
		return fmt.Sprintf("%.0f", sp.Min+rng.Float64()*span*0.8+span*0.05)
	}
	pool := g.entities[string(sp.ObjectType)]
	return pool[rng.Intn(len(pool))]
}

// falseObject draws a plausible-but-wrong object of the correct type — the
// kind of error a *source* makes (not a type violation).
func (g *generator) falseObject(rng *stats.RNG, sp predicateSpec, truth string) string {
	for i := 0; i < 32; i++ {
		v := g.trueObject(rng, sp)
		if v != truth {
			return v
		}
	}
	return truth + "_alt"
}

func (g *generator) buildFacts(rng *stats.RNG) {
	for _, t := range subjectTypes {
		for _, subj := range g.entities[t] {
			for _, pi := range g.predsOfType[t] {
				sp := g.specs[pi]
				obj := g.trueObject(rng, sp)
				g.w.TrueFacts[subj+"\x1f"+sp.Name] = obj
				// Only a KBCoverage fraction is visible to the gold
				// labeller, mimicking Freebase incompleteness.
				if rng.Bernoulli(g.p.KBCoverage) {
					if err := g.w.KB.AddFact(subj, sp.Name, obj); err != nil {
						panic("websim: fact: " + err.Error())
					}
				}
			}
		}
	}
}

func (g *generator) buildSites(rng *stats.RNG) {
	for i := 0; i < g.p.NumSites; i++ {
		s := Site{Name: fmt.Sprintf("site%04d.example", i)}
		u := rng.Float64()
		switch {
		case u < g.p.GossipFrac:
			s.Kind = Gossip
			s.Accuracy = rng.TruncatedBeta(2, 6, 0.05, 0.45)
			s.Popularity = 50 + rng.Float64()*150
		case u < g.p.GossipFrac+g.p.TailFrac:
			s.Kind = TailQuality
			s.Accuracy = rng.TruncatedBeta(12, 1.5, 0.88, 0.995)
			s.Popularity = 0.2 + rng.Float64()*0.8
		case u < g.p.GossipFrac+g.p.TailFrac+g.p.TrivialFrac:
			s.Kind = TrivialHeavy
			s.Accuracy = rng.TruncatedBeta(8, 2, 0.5, 0.98)
			s.Popularity = 1 + rng.Float64()*5
		default:
			s.Kind = Normal
			s.Accuracy = rng.TruncatedBeta(8, 2, 0.3, 0.99)
			s.Popularity = 1 + rng.Float64()*20
		}
		s.Topic = subjectTypes[rng.Intn(len(subjectTypes))]
		g.w.SiteIndex[s.Name] = len(g.w.Sites)
		g.w.Sites = append(g.w.Sites, s)
	}
}

func (g *generator) buildPagesAndTriples(rng *stats.RNG) {
	pageZipf := rng.Zipf(1.2, g.p.MaxPagesPerSite)
	tripleZipf := rng.Zipf(1.5, g.p.MaxTriplesPerPage)
	for si := range g.w.Sites {
		site := &g.w.Sites[si]
		srng := rng.Fork(int64(si))
		site.Pages = 3 + pageZipf.Next()
		correct := 0
		for pg := 0; pg < site.Pages; pg++ {
			nTriples := 1 + tripleZipf.Next()
			for k := 0; k < nTriples; k++ {
				// Pick a subject: sites are topically coherent (the paper's
				// §5.4.1 rater found only 2/100 sites off-topic).
				topic := site.Topic
				onTopic := srng.Bernoulli(0.97)
				if !onTopic {
					topic = subjectTypes[srng.Intn(len(subjectTypes))]
				}
				subj := g.entities[topic][srng.Intn(len(g.entities[topic]))]
				pis := g.predsOfType[topic]
				pi := pis[srng.Intn(len(pis))]
				if site.Kind == TrivialHeavy {
					// Prefer trivial predicates when the type has one.
					for attempt := 0; attempt < 4 && !g.specs[pi].trivial; attempt++ {
						pi = pis[srng.Intn(len(pis))]
					}
				} else {
					// Ordinary sites mostly state substantive facts; trivial
					// predicates are a small minority of their triples.
					for attempt := 0; attempt < 3 && g.specs[pi].trivial && srng.Bernoulli(0.85); attempt++ {
						pi = pis[srng.Intn(len(pis))]
					}
				}
				sp := g.specs[pi]
				truth := g.w.TrueFacts[subj+"\x1f"+sp.Name]
				obj := truth
				isTrue := true
				if !srng.Bernoulli(site.Accuracy) {
					obj = g.falseObject(srng, sp, truth)
					isTrue = obj == truth
				}
				if isTrue {
					correct++
				}
				page := PageName(site.Name, pg)
				g.w.Dataset.MarkProvided(site.Name, page, subj, sp.Name, obj)
				g.provided = append(g.provided, providedTriple{
					site: si, page: pg, subj: subj, pred: sp.Name, obj: obj,
					isTrue: isTrue, subjTopic: onTopic, trivial: sp.trivial,
				})
				site.Provided++
			}
		}
		if site.Provided > 0 {
			site.Empirical = float64(correct) / float64(site.Provided)
		}
	}
}

// PageName names page pg of a site: the URL its records carry and its
// provided triples are keyed by.
func PageName(site string, pg int) string {
	return fmt.Sprintf("%s/page%04d", site, pg)
}

func (g *generator) buildLinks(rng *stats.RNG) {
	weights := make([]float64, len(g.w.Sites))
	for i, s := range g.w.Sites {
		weights[i] = s.Popularity
		g.w.Graph.AddNode(s.Name)
	}
	for si, s := range g.w.Sites {
		n := 1 + rng.Intn(2*g.p.LinksPerSite)
		for l := 0; l < n; l++ {
			target := rng.Categorical(weights)
			if target == si {
				continue
			}
			g.w.Graph.AddEdge(s.Name, g.w.Sites[target].Name)
		}
	}
}

func (g *generator) buildExtractors(rng *stats.RNG) {
	for ei := 0; ei < g.p.NumExtractors; ei++ {
		erng := rng.Fork(int64(ei))
		prof := ExtractorProfile{
			Name:         fmt.Sprintf("ext%02d", ei),
			SiteCoverage: 0.3 + 0.6*erng.Float64(),
			Recall:       stats.Clamp(erng.Beta(5, 3), 0.1, 0.95),
			ErrorRate:    stats.Clamp(erng.Beta(2.5, 6), 0.05, 0.65),
			Confident:    erng.Bernoulli(0.75),
			Patterns:     make(map[string][]string),
		}
		// A few deliberately bad extractors mirror KV's noisy systems.
		if ei%5 == 4 {
			prof.Recall = stats.Clamp(erng.Beta(2, 5), 0.05, 0.5)
			prof.ErrorRate = stats.Clamp(erng.Beta(5, 4), 0.3, 0.8)
		}
		// Extractors carry many patterns per predicate (KV had 40M patterns
		// across 16 systems); the resulting sparsity of the single-layer
		// provenance (extractor, website, predicate, pattern) is what the
		// paper's split-and-merge exists to counter.
		for _, sp := range g.specs {
			n := 2 + erng.Intn(6)
			for k := 0; k < n; k++ {
				prof.Patterns[sp.Name] = append(prof.Patterns[sp.Name],
					fmt.Sprintf("%s_pat_%s_%d", prof.Name, sp.Name, k))
			}
		}
		g.w.Extractors = append(g.w.Extractors, prof)
	}
}

// extract runs every extractor over every provided triple, injecting the
// error modes that the type checker and the multi-layer model must tease
// apart.
func (g *generator) extract(rng *stats.RNG) {
	for ei, prof := range g.w.Extractors {
		erng := rng.Fork(int64(ei))
		// Per-site coverage decisions.
		covers := make([]bool, len(g.w.Sites))
		for si := range covers {
			covers[si] = erng.Bernoulli(prof.SiteCoverage)
		}
		for _, pt := range g.provided {
			if !covers[pt.site] {
				continue
			}
			if !erng.Bernoulli(prof.Recall) {
				continue
			}
			site := g.w.Sites[pt.site]
			subj, pred, obj := pt.subj, pt.pred, pt.obj
			wrong := false
			if erng.Bernoulli(prof.ErrorRate) {
				wrong = true
				switch erng.Categorical([]float64{0.45, 0.2, 0.15, 0.1, 0.1}) {
				case 0: // wrong object of the right type (silent error)
					sp := g.specByName(pred)
					obj = g.falseObject(erng, sp, obj)
				case 1: // wrong subject (attribution error)
					topic := g.w.TopicOfSubject[subj]
					pool := g.entities[topic]
					subj = pool[erng.Intn(len(pool))]
				case 2: // reconciliation failure: unlinked garbage object
					obj = fmt.Sprintf("##unlinked_%d", erng.Intn(1<<20))
				case 3: // degenerate extraction: subject as object
					obj = subj
				case 4: // numeric blow-up (or garbage for non-numeric)
					sp := g.specByName(pred)
					if sp.Numeric {
						obj = fmt.Sprintf("%.0f", sp.Max*10+erng.Float64()*1000)
					} else {
						obj = fmt.Sprintf("##garbled_%d", erng.Intn(1<<20))
					}
				}
			}
			pats := prof.Patterns[pred]
			pattern := pats[erng.Intn(len(pats))]
			conf := 1.0
			if prof.Confident {
				if wrong {
					conf = stats.Clamp(erng.Beta(2.5, 2.5), 0.05, 0.99)
				} else {
					conf = stats.Clamp(erng.Beta(7, 1.8), 0.2, 0.999)
				}
			}
			g.w.Dataset.Add(triple.Record{
				Extractor:  prof.Name,
				Pattern:    pattern,
				Website:    site.Name,
				Page:       PageName(site.Name, pt.page),
				Subject:    subj,
				Predicate:  pred,
				Object:     obj,
				Confidence: conf,
			})
		}
	}
}

func (g *generator) specByName(name string) predicateSpec {
	for _, sp := range g.specs {
		if sp.Name == name {
			return sp
		}
	}
	panic("websim: unknown predicate " + name)
}

// SiteOf returns the site metadata for a website name.
func (w *World) SiteOf(name string) (Site, bool) {
	i, ok := w.SiteIndex[name]
	if !ok {
		return Site{}, false
	}
	return w.Sites[i], true
}

// ProvidedTruth reports whether the website's page truly provides (s,p,o).
func (w *World) ProvidedTruth(website, page, subject, predicate, object string) bool {
	return w.Dataset.Provided[triple.ProvidedKey(website, page, subject, predicate, object)]
}

// TrueObject returns the ground-truth object for (subject, predicate).
func (w *World) TrueObject(subject, predicate string) (string, bool) {
	v, ok := w.TrueFacts[subject+"\x1f"+predicate]
	return v, ok
}
