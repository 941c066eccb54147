#include "datagen/yago.h"

#include <string>
#include <vector>

#include "rdf/vocab.h"
#include "util/random.h"

namespace shapestats::datagen {

namespace {

/// Per-class predicate profile used for the random (tail) classes.
struct PredProfile {
  rdf::TermId pred;
  double presence;        // probability an instance has the predicate
  uint64_t max_mult;      // 1..max_mult triples when present
  bool literal_object;    // literal vs entity link
  uint32_t target_class;  // for entity links: tail class of the object
  uint32_t literal_pool;  // for literals: number of distinct values
};

}  // namespace

// The generator produces two strata, mirroring YAGO-4's structure:
//
// 1. An *anchor* stratum with a fixed schema.org-like backbone (Person,
//    Actor, Movie, Organization, City, Country, Book) and deterministic
//    predicate profiles. The benchmark queries (workload/yago_queries)
//    target this stratum, so they are stable across seeds.
// 2. A *heterogeneous tail* of `num_classes` random classes with Zipf
//    sizes and random predicate profiles over a shared vocabulary — the
//    source of YAGO's thousands of node/property shapes.
rdf::Graph GenerateYago(const YagoOptions& options) {
  rdf::Graph g;
  rdf::TermDictionary& d = g.dict();
  Rng rng(options.seed);

  rdf::TermId type = d.InternIri(rdf::vocab::kRdfType);
  rdf::TermId label = d.InternIri(rdf::vocab::kRdfsLabel);
  auto schema = [&](const std::string& local) {
    return d.InternIri(std::string(kSchemaNs) + local);
  };
  auto entity_iri = [&](const std::string& name) {
    return d.InternIri(std::string(kYagoNs) + name);
  };
  auto literal = [&](const std::string& s) { return d.InternLiteral(s); };

  // ---------------------------------------------------------------- anchors
  rdf::TermId c_person = schema("Person");
  rdf::TermId c_actor = schema("Actor");
  rdf::TermId c_movie = schema("Movie");
  rdf::TermId c_organization = schema("Organization");
  rdf::TermId c_city = schema("City");
  rdf::TermId c_country = schema("Country");
  rdf::TermId c_book = schema("Book");

  rdf::TermId p_birth_place = schema("birthPlace");
  rdf::TermId p_works_for = schema("worksFor");
  rdf::TermId p_spouse = schema("spouse");
  rdf::TermId p_knows = schema("knows");
  rdf::TermId p_acted_in = schema("actedIn");
  rdf::TermId p_director = schema("director");
  rdf::TermId p_duration = schema("duration");
  rdf::TermId p_date_published = schema("datePublished");
  rdf::TermId p_location = schema("location");
  rdf::TermId p_num_employees = schema("numberOfEmployees");
  rdf::TermId p_located_in = schema("containedInPlace");
  rdf::TermId p_population = schema("populationNumber");
  rdf::TermId p_author = schema("author");
  rdf::TermId p_publisher = schema("publisher");
  rdf::TermId p_num_pages = schema("numberOfPages");
  rdf::TermId p_award = schema("award");

  const uint32_t n = options.num_entities;
  const uint32_t num_persons = n * 28 / 100;
  const uint32_t num_actors = n * 5 / 100;
  const uint32_t num_movies = n * 8 / 100;
  const uint32_t num_orgs = n * 7 / 100;
  const uint32_t num_cities = std::max<uint32_t>(50, n * 2 / 100);
  const uint32_t num_countries = 60;
  const uint32_t num_books = n * 6 / 100;

  std::vector<rdf::TermId> countries, cities, persons, actors, movies, orgs;

  for (uint32_t i = 0; i < num_countries; ++i) {
    rdf::TermId c = entity_iri("Country" + std::to_string(i));
    g.Add(c, type, c_country);
    g.Add(c, label, literal("Country " + std::to_string(i)));
    g.Add(c, p_population, d.Intern(rdf::Term::IntLiteral(
                               static_cast<int64_t>(rng.Uniform(100000, 99999999)))));
    countries.push_back(c);
  }
  for (uint32_t i = 0; i < num_cities; ++i) {
    rdf::TermId c = entity_iri("City" + std::to_string(i));
    g.Add(c, type, c_city);
    g.Add(c, label, literal("City " + std::to_string(i)));
    g.Add(c, p_located_in, countries[rng.Zipf(num_countries, 1.1)]);
    if (rng.Chance(0.8)) {
      g.Add(c, p_population, d.Intern(rdf::Term::IntLiteral(
                                 static_cast<int64_t>(rng.Uniform(1000, 9999999)))));
    }
    cities.push_back(c);
  }
  for (uint32_t i = 0; i < num_orgs; ++i) {
    rdf::TermId o = entity_iri("Org" + std::to_string(i));
    g.Add(o, type, c_organization);
    g.Add(o, label, literal("Organization " + std::to_string(i)));
    g.Add(o, p_location, cities[rng.Zipf(cities.size(), 1.05)]);
    if (rng.Chance(0.6)) {
      g.Add(o, p_num_employees, d.Intern(rdf::Term::IntLiteral(
                                    static_cast<int64_t>(rng.Uniform(3, 200000)))));
    }
    orgs.push_back(o);
  }
  for (uint32_t i = 0; i < num_persons; ++i) {
    rdf::TermId p = entity_iri("Person" + std::to_string(i));
    g.Add(p, type, c_person);
    g.Add(p, label, literal("Person " + std::to_string(i)));
    if (rng.Chance(0.85)) {
      g.Add(p, p_birth_place, cities[rng.Zipf(cities.size(), 1.1)]);
    }
    if (rng.Chance(0.4)) g.Add(p, p_works_for, orgs[rng.Zipf(orgs.size(), 1.05)]);
    if (rng.Chance(0.2)) {
      g.Add(p, p_spouse,
            entity_iri("Person" + std::to_string(rng.Uniform(0, num_persons - 1))));
    }
    uint64_t knows = rng.Zipf(8, 1.3);
    for (uint64_t k = 0; k < knows; ++k) {
      g.Add(p, p_knows,
            entity_iri("Person" + std::to_string(rng.Zipf(num_persons, 1.05))));
    }
    persons.push_back(p);
  }
  for (uint32_t i = 0; i < num_actors; ++i) {
    rdf::TermId a = entity_iri("Actor" + std::to_string(i));
    g.Add(a, type, c_actor);
    // Actors are persons too (YAGO multityping).
    g.Add(a, type, c_person);
    g.Add(a, label, literal("Actor " + std::to_string(i)));
    if (rng.Chance(0.9)) {
      g.Add(a, p_birth_place, cities[rng.Zipf(cities.size(), 1.1)]);
    }
    if (rng.Chance(0.3)) {
      g.Add(a, p_award, literal("Award" + std::to_string(rng.Uniform(0, 40))));
    }
    actors.push_back(a);
  }
  for (uint32_t i = 0; i < num_movies; ++i) {
    rdf::TermId m = entity_iri("Movie" + std::to_string(i));
    g.Add(m, type, c_movie);
    g.Add(m, label, literal("Movie " + std::to_string(i)));
    g.Add(m, p_director, persons[rng.Zipf(persons.size(), 1.1)]);
    if (rng.Chance(0.7)) {
      g.Add(m, p_duration, d.Intern(rdf::Term::IntLiteral(
                               static_cast<int64_t>(rng.Uniform(60, 220)))));
    }
    if (rng.Chance(0.8)) {
      g.Add(m, p_date_published,
            literal(std::to_string(rng.Uniform(1930, 2026))));
    }
    movies.push_back(m);
  }
  // actedIn edges: actor -> movie, heavy-tailed per actor.
  for (uint32_t i = 0; i < num_actors; ++i) {
    uint64_t roles = 1 + rng.Zipf(12, 1.25);
    for (uint64_t k = 0; k < roles; ++k) {
      g.Add(actors[i], p_acted_in, movies[rng.Zipf(movies.size(), 1.05)]);
    }
  }
  for (uint32_t i = 0; i < num_books; ++i) {
    rdf::TermId b = entity_iri("Book" + std::to_string(i));
    g.Add(b, type, c_book);
    g.Add(b, label, literal("Book " + std::to_string(i)));
    uint64_t authors = rng.Uniform(1, 3);
    for (uint64_t k = 0; k < authors; ++k) {
      g.Add(b, p_author, persons[rng.Zipf(persons.size(), 1.15)]);
    }
    if (rng.Chance(0.7)) g.Add(b, p_publisher, orgs[rng.Zipf(orgs.size(), 1.1)]);
    if (rng.Chance(0.6)) {
      g.Add(b, p_num_pages, d.Intern(rdf::Term::IntLiteral(
                                static_cast<int64_t>(rng.Uniform(40, 1800)))));
    }
  }

  // ------------------------------------------------------ heterogeneous tail
  // Cities and countries have fixed minimums, so a small graph can spend
  // every entity on the anchor classes; its tail is then empty.
  const uint32_t anchored = num_persons + num_actors + num_movies + num_orgs +
                            num_cities + num_countries + num_books;
  const uint32_t tail_entities = n > anchored ? n - anchored : 0;
  std::vector<rdf::TermId> classes;
  for (uint32_t c = 0; c < options.num_classes; ++c) {
    classes.push_back(schema("Class" + std::to_string(c)));
  }
  std::vector<rdf::TermId> predicates;
  for (uint32_t p = 0; p < options.num_predicates; ++p) {
    predicates.push_back(schema("prop" + std::to_string(p)));
  }
  std::vector<std::vector<PredProfile>> profiles(options.num_classes);
  for (uint32_t c = 0; c < options.num_classes; ++c) {
    uint64_t k = rng.Uniform(3, 10);
    std::vector<bool> used(options.num_predicates, false);
    for (uint64_t i = 0; i < k; ++i) {
      uint32_t p = static_cast<uint32_t>(rng.Zipf(options.num_predicates, 1.05));
      if (used[p]) continue;
      used[p] = true;
      PredProfile prof;
      prof.pred = predicates[p];
      prof.presence = 0.3 + rng.UniformReal() * 0.7;
      prof.max_mult = rng.Chance(0.25) ? rng.Uniform(2, 4) : 1;
      prof.literal_object = rng.Chance(0.5);
      prof.target_class = static_cast<uint32_t>(rng.Zipf(options.num_classes, 1.1));
      prof.literal_pool = static_cast<uint32_t>(rng.Uniform(5, 5000));
      profiles[c].push_back(prof);
    }
  }
  std::vector<uint32_t> class_of_entity(tail_entities);
  std::vector<std::vector<uint32_t>> tail_members(options.num_classes);
  for (uint32_t e = 0; e < tail_entities; ++e) {
    class_of_entity[e] = static_cast<uint32_t>(rng.Zipf(options.num_classes, 1.15));
    tail_members[class_of_entity[e]].push_back(e);
  }
  // Strings built via append throughout this loop: gcc 12's -Wrestrict
  // false-fires on operator+(const char*, std::string&&) under -O2.
  auto tail_iri = [&](uint32_t e) {
    std::string name = "T";
    name += std::to_string(e);
    return entity_iri(name);
  };
  for (uint32_t e = 0; e < tail_entities; ++e) {
    uint32_t c = class_of_entity[e];
    rdf::TermId subj = tail_iri(e);
    g.Add(subj, type, classes[c]);
    if (rng.Chance(0.12)) {
      uint32_t c2 = static_cast<uint32_t>(rng.Zipf(options.num_classes, 1.15));
      if (c2 != c) g.Add(subj, type, classes[c2]);
    }
    std::string label_value = "Entity ";
    label_value += std::to_string(e);
    g.Add(subj, label, literal(label_value));
    for (const PredProfile& prof : profiles[c]) {
      if (!rng.Chance(prof.presence)) continue;
      uint64_t mult = rng.Uniform(1, prof.max_mult);
      for (uint64_t m = 0; m < mult; ++m) {
        if (prof.literal_object) {
          std::string value = "v";
          value += std::to_string(rng.Uniform(0, prof.literal_pool - 1));
          g.Add(subj, prof.pred, literal(value));
        } else {
          const auto& pool = tail_members[prof.target_class];
          if (pool.empty()) continue;
          g.Add(subj, prof.pred, tail_iri(pool[rng.Zipf(pool.size(), 1.02)]));
        }
      }
    }
  }

  if (options.finalize) g.Finalize();
  return g;
}

}  // namespace shapestats::datagen
