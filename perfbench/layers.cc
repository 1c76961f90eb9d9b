// pblayers: the benchmark's in-process helper.
//
//   pblayers gen-schema --seed N --fields F --depth D --keys K --out DIR
//       Writes the Fig. 7-style schema of src/synth MakeWorkload in the
//       CLI file syntax (DIR/keys.txt, DIR/rules.txt) plus DIR/fds.json,
//       a pool of FDs whose propagation verdicts are known by
//       construction, each confirmed here with the reference
//       (engine-less) propagation check.
//
//   pblayers layers --keys K --rules R --doc D --schema-keys SK
//                   --schema-rules SR --fds FDS.json --seconds S
//                   --work DIR
//       Times calls into each module's public functions on those inputs,
//       repeating the document and the schema pass each for about S/2
//       seconds (at least kMinReps times), and prints one JSON object:
//       {"metrics": {median per metric}, "spans": [...]}.
//       The spans are this program's own timers around each call, not
//       the program's obs::Trace.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/design_advisor.h"
#include "core/minimum_cover.h"
#include "core/propagation.h"
#include "keys/implication_engine.h"
#include "keys/satisfaction.h"
#include "keys/xml_key.h"
#include "relational/cover.h"
#include "relational/csv.h"
#include "relational/fd.h"
#include "service/protocol.h"
#include "service/session_cache.h"
#include "synth/workload.h"
#include "transform/eval.h"
#include "transform/rule_parser.h"
#include "transform/table_tree.h"
#include "xml/parser.h"
#include "xml/tree_index.h"

namespace xmlprop {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "pblayers: " << what << "\n";
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Die("cannot write " + path);
}

std::string Quote(const std::string& s) {
  return "\"" + service::JsonEscape(s) + "\"";
}

std::map<std::string, std::string> Flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) Die("bad flag " + name);
    flags[name.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string Need(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) Die("missing --" + name);
  return it->second;
}

// ---------------------------------------------------------------- spans

// One timed call: name, parent span index (-1 = root), start and end in
// microseconds since the pass began.
struct Span {
  std::string name;
  int parent;
  double start_us;
  double end_us;
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  // Runs `fn` inside a span and returns its duration in ms.
  template <typename Fn>
  double Time(const std::string& name, Fn&& fn) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), Now(), 0});
    open_.push_back(index);
    const auto start = Clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    open_.pop_back();
    spans_[index].end_us = Now();
    return ms;
  }

  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\": " + Quote(s.name) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"start_us\": " + std::to_string(s.start_us) +
             ", \"end_us\": " + std::to_string(s.end_us) + "}";
    }
    return out + "]";
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

constexpr int kMinReps = 3;

// True while a pass begun at `start` should run another repetition.
bool Again(int done, Clock::time_point start, double seconds) {
  return done < kMinReps ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             seconds;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ----------------------------------------------------------- gen-schema

std::string RulesText(const TableRule& rule) {
  std::string out = "rule " + rule.relation_name() + " {\n";
  for (const FieldRule& f : rule.field_rules()) {
    out += "  " + f.ToString() + "\n";
  }
  for (const VarMapping& m : rule.mappings()) {
    out += "  " + m.ToString() + "\n";
  }
  return out + "}\n";
}

int GenSchema(const std::map<std::string, std::string>& flags) {
  WorkloadSpec spec;
  spec.seed = std::stoull(Need(flags, "seed"));
  spec.fields = std::stoul(Need(flags, "fields"));
  spec.depth = std::stoul(Need(flags, "depth"));
  spec.keys = std::stoul(Need(flags, "keys"));
  const std::string dir = Need(flags, "out");
  SyntheticWorkload w = Must(MakeWorkload(spec), "MakeWorkload");

  std::string keys_text;
  for (const XmlKey& k : w.keys) keys_text += k.ToString() + "\n";
  const std::string rules_text = RulesText(w.rule);

  // The files must parse back to the generated schema.
  std::vector<XmlKey> keys = Must(ParseKeySet(keys_text), "reparse keys");
  Transformation rules =
      Must(ParseTransformation(rules_text), "reparse rules");
  if (keys.size() != w.keys.size() || rules.rules().size() != 1 ||
      rules.rules()[0].ToString() != w.rule.ToString()) {
    Die("written schema does not parse back to the generated one");
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].ToString() != w.keys[i].ToString()) {
      Die("key " + std::to_string(i) + " does not round-trip");
    }
  }

  // The FD pool, by the same construction as MakeWorkload's true_fd /
  // false_fd: chain-key fields of levels 1..L determine any attribute
  // field of level L; an element field alone never determines field 0.
  const RelationSchema& schema = w.table.schema();
  std::map<std::string, std::string> var_parent, var_step;
  for (const VarMapping& m : w.rule.mappings()) {
    var_parent[m.var] = m.parent;
    var_step[m.var] = m.path.ToString();
  }
  std::vector<std::string> chain;  // chain-key field names, level order
  std::vector<std::string> trues = {w.true_fd.ToString(schema)};
  std::vector<std::string> falses = {w.false_fd.ToString(schema)};
  const size_t keyed_depth = std::min({spec.depth, spec.keys, spec.fields});
  for (const FieldRule& f : w.rule.field_rules()) {
    const std::string& parent = var_parent[f.var];
    const size_t level = std::stoul(parent.substr(1));
    const bool attr = var_step[f.var].rfind("@", 0) == 0;
    if (f.field.rfind("key", 0) == 0) {
      chain.push_back(f.field);
    } else if (attr && level <= keyed_depth) {
      std::string lhs;
      for (size_t i = 0; i < level; ++i) lhs += (i ? ", " : "") + chain[i];
      trues.push_back(lhs + " -> " + f.field);
    } else if (!attr) {
      falses.push_back(f.field + " -> " + schema.attributes()[0]);
    }
  }

  std::string fds = "{\"true\": [";
  for (size_t pass = 0; pass < 2; ++pass) {
    const std::vector<std::string>& list = pass == 0 ? trues : falses;
    if (pass == 1) fds += "], \"false\": [";
    for (size_t i = 0; i < list.size(); ++i) {
      Fd fd = Must(ParseFd(schema, list[i]), "parse fd " + list[i]);
      const bool verdict =
          Must(CheckPropagation(w.keys, w.table, fd), "propagate");
      if (verdict != (pass == 0)) Die("FD pool verdict wrong: " + list[i]);
      fds += (i ? ", " : "") + Quote(list[i]);
    }
  }
  fds += "], \"fields\": " + std::to_string(schema.arity()) +
         ", \"depth\": " + std::to_string(spec.depth) +
         ", \"keys\": " + std::to_string(w.keys.size()) +
         ", \"relation\": " + Quote(w.table.relation_name()) + "}\n";

  WriteAll(dir + "/keys.txt", keys_text);
  WriteAll(dir + "/rules.txt", rules_text);
  WriteAll(dir + "/fds.json", fds);
  return 0;
}

// --------------------------------------------------------------- layers

std::vector<std::string> JsonStrings(const std::string& json,
                                     const std::string& field) {
  // fds.json is written by GenSchema above: "field": ["a", "b", ...].
  std::vector<std::string> out;
  size_t pos = json.find("\"" + field + "\": [");
  if (pos == std::string::npos) Die("fds.json lacks " + field);
  pos = json.find('[', pos) + 1;
  const size_t end = json.find(']', pos);
  while (true) {
    const size_t open = json.find('"', pos);
    if (open == std::string::npos || open > end) break;
    const size_t close = json.find('"', open + 1);
    out.push_back(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

int Layers(const std::map<std::string, std::string>& flags) {
  const double pass_seconds = std::stod(Need(flags, "seconds")) / 2;
  const std::string doc_path = Need(flags, "doc");
  Recorder rec;
  std::map<std::string, double> m;
  std::map<std::string, std::vector<double>> t;

  // Document layers, on the production (--index) path of check/shred.
  const std::vector<XmlKey> keys =
      Must(ParseKeySet(ReadAll(Need(flags, "keys"))), "keys");
  const Transformation rules =
      Must(ParseTransformation(ReadAll(Need(flags, "rules"))), "rules");
  ThreadPool pool;
  std::string largest_reply;
  const Clock::time_point doc_start = Clock::now();
  for (int r = 0; Again(r, doc_start, pass_seconds); ++r) {
    rec.Time("doc_pass", [&] {
      std::string text;
      Tree tree;
      std::unique_ptr<TreeIndex> index;
      t["xml.read_ms"].push_back(
          rec.Time("xml.read", [&] { text = ReadAll(doc_path); }));
      t["xml.parse_ms"].push_back(rec.Time("xml.parse", [&] {
        tree = Must(ParseXml(text), "parse");
      }));
      t["xml.index_ms"].push_back(rec.Time("xml.index", [&] {
        index = std::make_unique<TreeIndex>(tree);
      }));
      m["xml.parsed_nodes"] = static_cast<double>(tree.size());
      m["xml.doc_bytes"] = static_cast<double>(text.size());
      CheckStats stats;
      size_t violations = 0;
      t["keys.check_ms"].push_back(rec.Time("keys.check", [&] {
        CheckOptions options;
        options.pool = &pool;
        options.stats = &stats;
        violations = CheckAll(*index, keys, options).size();
      }));
      m["keys.violations"] = static_cast<double>(violations);
      std::vector<Instance> instances;
      t["transform.shred_ms"].push_back(rec.Time("transform.shred", [&] {
        instances = Must(EvalTransformation(*index, rules), "shred");
      }));
      std::string csv;
      t["relational.render_ms"].push_back(rec.Time("relational.render", [&] {
        for (const Instance& instance : instances) {
          csv += "# " + instance.schema().name() + "\n" + WriteCsv(instance);
        }
      }));
      m["relational.render_bytes"] = static_cast<double>(csv.size());
      largest_reply = std::move(csv);
    });
  }

  // The service's framing of the largest reply (the shred CSV), and its
  // session cache: a hit on an unchanged document, a rebuild after a
  // rename-replace.
  service::Reply reply;
  reply.out = largest_reply;
  reply.request_id = 1;
  std::string frame;
  for (int r = 0; r < kMinReps; ++r) {
    t["service.encode_ms"].push_back(rec.Time("service.encode", [&] {
      frame = service::EncodeReply(reply);
    }));
    t["service.decode_ms"].push_back(rec.Time("service.decode", [&] {
      Must(service::DecodeReply(frame), "decode reply");
    }));
  }
  {
    const std::string copy = Need(flags, "work") + "/cache_doc.xml";
    const std::string text = ReadAll(doc_path);
    auto write_copy = [&](const std::string& bytes) {
      WriteAll(copy + ".tmp", bytes);
      if (std::rename((copy + ".tmp").c_str(), copy.c_str()) != 0) {
        Die("rename " + copy);
      }
    };
    service::SessionCache cache(service::SessionCache::Options{});
    std::string line;
    for (int r = 0; r < kMinReps; ++r) {
      // Alternate two contents, so that after the cold first build every
      // build is a fingerprint invalidation.
      write_copy(r % 2 == 0 ? text : text + "\n");
      t["service.cache_rebuild_ms"].push_back(
          rec.Time("service.cache_rebuild", [&] {
            Must(cache.Indexed(copy, false, &line), "cache build");
          }));
    }
    // The stat fast path trusts only mtimes older than the racy window.
    usleep(50 * 1000);
    Must(cache.Indexed(copy, false, &line), "cache warm");
    std::vector<double> hits;
    for (int r = 0; r < 200; ++r) {
      hits.push_back(1000 * rec.Time("service.cache_hit", [&] {
        Must(cache.Indexed(copy, false, &line), "cache hit");
      }));
    }
    m["service.cache_hit_us"] = Median(hits);
    std::remove(copy.c_str());
  }

  // Schema layers: the implication engine, the closure kernel and the
  // core algorithms, on the Fig. 7-style schema.
  const std::vector<XmlKey> sigma =
      Must(ParseKeySet(ReadAll(Need(flags, "schema-keys"))), "schema keys");
  const Transformation schema_rules = Must(
      ParseTransformation(ReadAll(Need(flags, "schema-rules"))),
      "schema rules");
  const TableRule& rule = schema_rules.rules()[0];
  const TableTree table = Must(TableTree::Build(rule), "table tree");
  const std::string fds_json = ReadAll(Need(flags, "fds"));
  std::vector<Fd> fds;
  for (const char* kind : {"true", "false"}) {
    for (const std::string& text : JsonStrings(fds_json, kind)) {
      fds.push_back(Must(ParseFd(table.schema(), text), "fd " + text));
    }
  }
  const Clock::time_point schema_start = Clock::now();
  for (int r = 0; Again(r, schema_start, pass_seconds); ++r) {
    rec.Time("schema_pass", [&] {
      FdSet raw;
      t["core.cover_raw_ms"].push_back(rec.Time("core.cover_raw", [&] {
        ImplicationEngine engine(sigma);
        raw = Must(PropagatedCoverRaw(engine, table), "raw cover");
      }));
      t["closure.minimize_ms"].push_back(rec.Time("closure.minimize", [&] {
        Minimize(raw);
      }));
      t["core.min_cover_ms"].push_back(rec.Time("core.min_cover", [&] {
        ImplicationEngine engine(sigma);
        Must(MinimumCover(engine, table), "minimum cover");
      }));
      t["core.design_ms"].push_back(rec.Time("core.design", [&] {
        Must(AdviseDesign(sigma, rule), "design");
      }));
      // One fresh engine per FD, as a one-shot `propagate --engine` has.
      double total_ms = 0;
      size_t calls = 0;
      std::vector<double> per_fd;
      for (const Fd& fd : fds) {
        PropagationStats stats;
        const double ms = rec.Time("core.propagation", [&] {
          ImplicationEngine engine(sigma);
          Must(CheckPropagation(engine, table, fd, &stats), "propagate");
        });
        per_fd.push_back(ms);
        total_ms += ms;
        calls += stats.implication_calls;
      }
      t["core.propagation_ms"].push_back(Median(per_fd));
      t["engine.implies_us"].push_back(
          1000 * total_ms / static_cast<double>(std::max<size_t>(calls, 1)));
    });
  }

  for (const auto& [name, samples] : t) m[name] = Median(samples);
  std::cout << std::setprecision(12) << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    std::cout << (first ? "" : ", ") << Quote(name) << ": " << value;
    first = false;
  }
  std::cout << "},\n\"spans\": " << rec.Json() << "}\n";
  return 0;
}

}  // namespace
}  // namespace xmlprop

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pblayers gen-schema|layers [--flag value]...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = xmlprop::Flags(argc, argv);
  if (cmd == "gen-schema") return xmlprop::GenSchema(flags);
  if (cmd == "layers") return xmlprop::Layers(flags);
  std::cerr << "pblayers: unknown command " << cmd << "\n";
  return 2;
}
