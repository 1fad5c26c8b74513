#include "fault/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace mrbio::fault {

namespace {

std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a])) != 0) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])) != 0) --b;
  return s.substr(a, b - a);
}

double to_real(const std::string& field, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  MRBIO_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
                "fault plan: bad number for '", field, "': '", value, "'");
  return v;
}

std::int64_t to_int(const std::string& field, const std::string& value) {
  const double v = to_real(field, value);
  const auto i = static_cast<std::int64_t>(v);
  MRBIO_REQUIRE(static_cast<double>(i) == v, "fault plan: '", field,
                "' must be an integer, got '", value, "'");
  return i;
}

/// key=value fields of one clause; '@' and ',' both separate fields, so
/// the paper-style shorthand crash:rank=3@t=0.4 parses naturally.
std::map<std::string, std::string> parse_fields(const std::string& kind,
                                                const std::string& body) {
  std::map<std::string, std::string> fields;
  std::string token;
  auto flush = [&] {
    token = trim(token);
    if (token.empty()) return;
    const std::size_t eq = token.find('=');
    MRBIO_REQUIRE(eq != std::string::npos && eq > 0, "fault plan: expected key=value in '",
                  kind, "' clause, got '", token, "'");
    const std::string key = trim(token.substr(0, eq));
    MRBIO_REQUIRE(fields.emplace(key, trim(token.substr(eq + 1))).second,
                  "fault plan: duplicate field '", key, "' in '", kind, "' clause");
    token.clear();
  };
  for (const char c : body) {
    if (c == ',' || c == '@') {
      flush();
    } else {
      token.push_back(c);
    }
  }
  flush();
  return fields;
}

void check_known(const std::string& kind, const std::map<std::string, std::string>& fields,
                 std::initializer_list<const char*> known) {
  for (const auto& [key, value] : fields) {
    (void)value;
    const bool ok = std::any_of(known.begin(), known.end(),
                                [&](const char* k) { return key == k; });
    MRBIO_REQUIRE(ok, "fault plan: unknown field '", key, "' in '", kind, "' clause");
  }
}

void add_clause(FaultPlan& plan, const std::string& kind,
                const std::map<std::string, std::string>& fields) {
  auto get = [&](const char* key) -> const std::string* {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  };
  auto require = [&](const char* key) -> const std::string& {
    const std::string* v = get(key);
    MRBIO_REQUIRE(v != nullptr, "fault plan: '", kind, "' clause needs ", key, "=");
    return *v;
  };

  if (kind == "crash") {
    check_known(kind, fields, {"rank", "t", "task", "mode"});
    CrashFault c;
    c.rank = static_cast<int>(to_int("rank", require("rank")));
    if (const std::string* t = get("t")) c.t = to_real("t", *t);
    if (const std::string* task = get("task")) c.task = to_int("task", *task);
    MRBIO_REQUIRE((c.t >= 0.0) != (c.task >= 0), "fault plan: crash needs exactly one of ",
                  "t= or task=");
    if (const std::string* mode = get("mode")) {
      MRBIO_REQUIRE(*mode == "transient" || *mode == "permanent",
                    "fault plan: crash mode must be transient or permanent, got '", *mode,
                    "'");
      c.permanent = *mode == "permanent";
    }
    plan.crashes.push_back(c);
  } else if (kind == "drop" || kind == "dup" || kind == "delay") {
    check_known(kind, fields, {"src", "dst", "count", "by", "t"});
    MessageFault m;
    m.kind = kind == "drop"  ? MessageFault::Kind::Drop
             : kind == "dup" ? MessageFault::Kind::Duplicate
                             : MessageFault::Kind::Delay;
    if (const std::string* src = get("src")) m.src = static_cast<int>(to_int("src", *src));
    if (const std::string* dst = get("dst")) m.dst = static_cast<int>(to_int("dst", *dst));
    if (const std::string* count = get("count")) {
      m.count = static_cast<int>(to_int("count", *count));
      MRBIO_REQUIRE(m.count > 0, "fault plan: count must be positive");
    }
    if (m.kind == MessageFault::Kind::Delay) {
      // "by" is canonical; "t" is accepted as a shorthand for the delay.
      const std::string* by = get("by") != nullptr ? get("by") : get("t");
      MRBIO_REQUIRE(by != nullptr, "fault plan: delay needs by=<seconds>");
      m.by = to_real("by", *by);
      MRBIO_REQUIRE(m.by > 0.0, "fault plan: delay must be positive");
    } else {
      MRBIO_REQUIRE(get("by") == nullptr && get("t") == nullptr, "fault plan: '", kind,
                    "' does not take by=/t=");
    }
    plan.messages.push_back(m);
  } else if (kind == "slow") {
    check_known(kind, fields, {"rank", "factor"});
    SlowFault s;
    s.rank = static_cast<int>(to_int("rank", require("rank")));
    s.factor = to_real("factor", require("factor"));
    MRBIO_REQUIRE(s.factor >= 1.0, "fault plan: slow factor must be >= 1");
    plan.slows.push_back(s);
  } else if (kind == "kill") {
    check_known(kind, fields, {"t"});
    KillFault k;
    k.t = to_real("t", require("t"));
    MRBIO_REQUIRE(k.t >= 0.0, "fault plan: kill time must be >= 0");
    plan.kills.push_back(k);
  } else if (kind == "corrupt") {
    check_known(kind, fields, {"target", "byte", "count"});
    CorruptFault c;
    if (const std::string* target = get("target")) {
      if (*target == "ledger") {
        c.target = CorruptTarget::Ledger;
      } else if (*target == "map") {
        c.target = CorruptTarget::MapLog;
      } else if (*target == "snapshot") {
        c.target = CorruptTarget::Snapshot;
      } else if (*target == "shard") {
        c.target = CorruptTarget::Shard;
      } else if (*target == "any") {
        c.target = CorruptTarget::Any;
      } else {
        throw InputError(format_msg("fault plan: corrupt target must be ",
                                    "ledger/map/snapshot/shard/any, got '", *target, "'"));
      }
    }
    if (const std::string* byte = get("byte")) {
      c.byte = to_int("byte", *byte);
      MRBIO_REQUIRE(c.byte >= 0, "fault plan: corrupt byte offset must be >= 0");
    }
    if (const std::string* count = get("count")) {
      c.count = static_cast<int>(to_int("count", *count));
      MRBIO_REQUIRE(c.count > 0, "fault plan: count must be positive");
    }
    plan.corrupts.push_back(c);
  } else {
    throw InputError(format_msg("fault plan: unknown fault kind '", kind,
                                "' (expected crash/drop/dup/delay/slow/kill/corrupt)"));
  }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader: objects, arrays, strings, numbers, true/false/null.
// Enough for {"faults":[{...},...]} documents; rejects anything malformed.

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses one document into the plan and requires trailing whitespace only.
  void read_plan(FaultPlan& plan) {
    skip_ws();
    expect('{');
    bool saw_faults = false;
    if (!try_consume('}')) {
      do {
        const std::string key = read_string();
        skip_ws();
        expect(':');
        if (key == "faults") {
          saw_faults = true;
          read_fault_array(plan);
        } else {
          skip_value();
        }
      } while (try_consume(','));
      expect('}');
    }
    skip_ws();
    MRBIO_REQUIRE(pos_ == text_.size(), "fault plan JSON: trailing garbage at offset ",
                  pos_);
    MRBIO_REQUIRE(saw_faults, "fault plan JSON: missing \"faults\" array");
  }

 private:
  void read_fault_array(FaultPlan& plan) {
    skip_ws();
    expect('[');
    if (try_consume(']')) return;
    do {
      skip_ws();
      expect('{');
      std::map<std::string, std::string> fields;
      std::string kind;
      if (!try_consume('}')) {
        do {
          const std::string key = read_string();
          skip_ws();
          expect(':');
          const std::string value = read_scalar_as_string();
          if (key == "kind") {
            kind = value;
          } else if (key == "mode") {
            fields["mode"] = value;
          } else {
            fields[key] = value;
          }
        } while (try_consume(','));
        expect('}');
      }
      MRBIO_REQUIRE(!kind.empty(), "fault plan JSON: fault object needs \"kind\"");
      add_clause(plan, kind, fields);
    } while (try_consume(','));
    expect(']');
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  void expect(char c) {
    skip_ws();
    MRBIO_REQUIRE(pos_ < text_.size() && text_[pos_] == c, "fault plan JSON: expected '", c,
                  "' at offset ", pos_);
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string read_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        MRBIO_REQUIRE(pos_ < text_.size(), "fault plan JSON: bad escape");
        c = text_[pos_++];
        MRBIO_REQUIRE(c == '"' || c == '\\' || c == '/', "fault plan JSON: unsupported ",
                      "escape '\\", c, "'");
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  std::string read_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    MRBIO_REQUIRE(pos_ > start, "fault plan JSON: expected a value at offset ", pos_);
    return text_.substr(start, pos_ - start);
  }

  /// String, number, or literal — returned in the spec string form so the
  /// clause builder treats both input syntaxes identically.
  std::string read_scalar_as_string() {
    skip_ws();
    MRBIO_REQUIRE(pos_ < text_.size(), "fault plan JSON: truncated document");
    const char c = text_[pos_];
    if (c == '"') return read_string();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return "true";
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return "false";
    }
    return read_number();
  }

  void skip_value() {
    skip_ws();
    MRBIO_REQUIRE(pos_ < text_.size(), "fault plan JSON: truncated document");
    const char c = text_[pos_];
    if (c == '{') {
      expect('{');
      if (try_consume('}')) return;
      do {
        read_string();
        skip_ws();
        expect(':');
        skip_value();
      } while (try_consume(','));
      expect('}');
    } else if (c == '[') {
      expect('[');
      if (try_consume(']')) return;
      do {
        skip_value();
      } while (try_consume(','));
      expect(']');
    } else if (c == '"') {
      read_string();
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      read_scalar_as_string();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool FaultPlan::requires_ft() const {
  return !crashes.empty() ||
         std::any_of(messages.begin(), messages.end(), [](const MessageFault& m) {
           return m.kind != MessageFault::Kind::Delay;
         });
}

void FaultPlan::validate(int nranks, bool checkpointing, bool master_failover) const {
  for (const CrashFault& c : crashes) {
    MRBIO_REQUIRE(c.rank >= 0 && c.rank < nranks, "fault plan: crash rank ", c.rank,
                  " outside [0, ", nranks, ")");
    MRBIO_REQUIRE(c.rank != 0 || master_failover,
                  "fault plan: rank 0 is the master-worker scheduler and cannot ",
                  "crash (use --scheduler steal, whose sharded ledger elects a ",
                  "successor)");
  }
  for (const MessageFault& m : messages) {
    MRBIO_REQUIRE(m.src >= -1 && m.src < nranks, "fault plan: message src ", m.src,
                  " outside [-1, ", nranks, ")");
    MRBIO_REQUIRE(m.dst >= -1 && m.dst < nranks, "fault plan: message dst ", m.dst,
                  " outside [-1, ", nranks, ")");
  }
  for (const SlowFault& s : slows) {
    MRBIO_REQUIRE(s.rank >= 0 && s.rank < nranks, "fault plan: slow rank ", s.rank,
                  " outside [0, ", nranks, ")");
  }
  for (const KillFault& k : kills) {
    MRBIO_REQUIRE(k.t >= 0.0, "fault plan: kill time must be >= 0");
  }
  MRBIO_REQUIRE(corrupts.empty() || checkpointing,
                "fault plan: corrupt faults need a checkpoint to target; "
                "configure --checkpoint-dir");
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&]() -> std::ostringstream& {
    if (!first) os << "; ";
    first = false;
    return os;
  };
  for (const CrashFault& c : crashes) {
    sep() << "crash:rank=" << c.rank;
    if (c.t >= 0.0) os << "@t=" << c.t;
    if (c.task >= 0) os << "@task=" << c.task;
    if (c.permanent) os << ",mode=permanent";
  }
  for (const MessageFault& m : messages) {
    const char* kind = m.kind == MessageFault::Kind::Drop        ? "drop"
                       : m.kind == MessageFault::Kind::Duplicate ? "dup"
                                                                 : "delay";
    sep() << kind << ":src=" << m.src << ",dst=" << m.dst;
    if (m.kind == MessageFault::Kind::Delay) os << ",by=" << m.by;
    os << ",count=" << m.count;
  }
  for (const SlowFault& s : slows) {
    sep() << "slow:rank=" << s.rank << ",factor=" << s.factor;
  }
  for (const KillFault& k : kills) {
    sep() << "kill:t=" << k.t;
  }
  for (const CorruptFault& c : corrupts) {
    const char* target = c.target == CorruptTarget::Ledger     ? "ledger"
                         : c.target == CorruptTarget::MapLog   ? "map"
                         : c.target == CorruptTarget::Snapshot ? "snapshot"
                         : c.target == CorruptTarget::Shard    ? "shard"
                                                               : "any";
    sep() << "corrupt:target=" << target;
    if (c.byte >= 0) os << ",byte=" << c.byte;
    if (c.count != 1) os << ",count=" << c.count;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  const std::string trimmed = trim(text);
  if (!trimmed.empty() && trimmed.front() == '{') return parse_json(trimmed);
  return parse_spec(trimmed);
}

FaultPlan FaultPlan::parse_spec(const std::string& spec) {
  FaultPlan plan;
  std::string clause;
  std::istringstream in(spec);
  while (std::getline(in, clause, ';')) {
    clause = trim(clause);
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    MRBIO_REQUIRE(colon != std::string::npos, "fault plan: expected kind:fields, got '",
                  clause, "'");
    const std::string kind = trim(clause.substr(0, colon));
    add_clause(plan, kind, parse_fields(kind, clause.substr(colon + 1)));
  }
  return plan;
}

FaultPlan FaultPlan::parse_json(const std::string& json) {
  FaultPlan plan;
  JsonReader(json).read_plan(plan);
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MRBIO_REQUIRE(in.good(), "cannot open fault plan file ", path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

// ---------------------------------------------------------------------------
// Injector

Injector::Injector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const CrashFault& c : plan_.crashes) crashes_.push_back({c, false});
  for (const MessageFault& m : plan_.messages) messages_.push_back({m, m.count});
  for (const KillFault& k : plan_.kills) kills_.push_back({k, false});
  for (const CorruptFault& c : plan_.corrupts) corrupts_.push_back({c, c.count});
}

void Injector::poll_locked(int rank, double now, std::unique_lock<std::mutex>& lock) {
  // Job kills outrank everything: once due, EVERY poll on EVERY rank
  // throws, so no rank keeps computing past the kill point. `fired` only
  // de-duplicates the stats counter.
  for (KillState& k : kills_) {
    if (now < k.fault.t) continue;
    if (!k.fired) {
      k.fired = true;
      ++stats_.kills_fired;
    }
    const std::string what =
        format_msg("injected job kill at t=", now, " (planned t=", k.fault.t,
                   ") on rank ", rank, " — restart with --resume to continue");
    lock.unlock();
    throw JobKillSignal(rank, what);
  }
  for (CrashState& c : crashes_) {
    if (c.fired || c.fault.rank != rank) continue;
    const bool time_due = c.fault.t >= 0.0 && now >= c.fault.t;
    const bool task_due =
        c.fault.task >= 0 && rank < static_cast<int>(tasks_started_.size()) &&
        tasks_started_[static_cast<std::size_t>(rank)] > c.fault.task;
    if (!time_due && !task_due) continue;
    c.fired = true;
    ++stats_.crashes_fired;
    const std::size_t r = static_cast<std::size_t>(rank);
    if (crashed_.size() <= r) crashed_.resize(r + 1, false);
    crashed_[r] = true;
    if (c.fault.permanent) {
      if (permanently_crashed_.size() <= r) permanently_crashed_.resize(r + 1, false);
      permanently_crashed_[r] = true;
    }
    const std::string what = format_msg(
        "injected crash on rank ", rank, c.fault.permanent ? " (permanent)" : "", " at t=",
        now, " — enable fault tolerance (MapReduceConfig.ft) to recover");
    lock.unlock();
    throw CrashSignal(rank, what);
  }
}

void Injector::maybe_crash(int rank, double now) {
  std::unique_lock<std::mutex> lock(mutex_);
  poll_locked(rank, now, lock);
}

void Injector::task_started(int rank, double now) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t r = static_cast<std::size_t>(rank);
  if (tasks_started_.size() <= r) tasks_started_.resize(r + 1, 0);
  ++tasks_started_[r];
  poll_locked(rank, now, lock);
}

bool Injector::crashed(int rank) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t r = static_cast<std::size_t>(rank);
  return r < crashed_.size() && crashed_[r];
}

bool Injector::permanently_crashed(int rank) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t r = static_cast<std::size_t>(rank);
  return r < permanently_crashed_.size() && permanently_crashed_[r];
}

SendAction Injector::on_send(int src, int dst, int tag, int user_tag_limit) {
  SendAction action;
  if (tag < 0 || tag >= user_tag_limit) return action;  // collectives are immune
  std::unique_lock<std::mutex> lock(mutex_);
  for (MessageState& m : messages_) {
    if (m.remaining <= 0) continue;
    if (m.fault.src != -1 && m.fault.src != src) continue;
    if (m.fault.dst != -1 && m.fault.dst != dst) continue;
    --m.remaining;
    switch (m.fault.kind) {
      case MessageFault::Kind::Drop:
        ++stats_.messages_dropped;
        action.kind = SendAction::Kind::Drop;
        return action;
      case MessageFault::Kind::Duplicate:
        ++stats_.messages_duplicated;
        action.kind = SendAction::Kind::Duplicate;
        return action;
      case MessageFault::Kind::Delay:
        ++stats_.messages_delayed;
        action.delay = m.fault.by;
        return action;
    }
  }
  return action;
}

bool Injector::take_corrupt(CorruptTarget target, CorruptFault& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (CorruptState& c : corrupts_) {
    if (c.remaining <= 0) continue;
    const bool match = c.fault.target == CorruptTarget::Any ||
                       target == CorruptTarget::Any || c.fault.target == target;
    if (!match) continue;
    --c.remaining;
    ++stats_.checkpoints_corrupted;
    out = c.fault;
    return true;
  }
  return false;
}

double Injector::slow_factor(int rank) const {
  double factor = 1.0;
  for (const SlowFault& s : plan_.slows) {
    if (s.rank == rank) factor *= s.factor;
  }
  return factor;
}

InjectorStats Injector::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mrbio::fault
