#include "src/robust/checkpoint.h"

#include <charconv>
#include <sstream>

#include "src/robust/failpoint.h"
#include "src/util/durable_file.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

/// Minimal cursor over the checkpoint JSON subset (strings, bools, and the
/// marks array of [string, string, bool] triples).
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Err(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  bool TryConsume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    FAIREM_RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Err("bad \\u escape digit");
            }
          }
          // We only ever emit \u for control bytes; anything wider is not
          // our writer's output.
          if (value >= 0x80) return Err("unsupported \\u escape");
          out.push_back(static_cast<char>(value));
          break;
        }
        default:
          return Err("unsupported escape");
      }
    }
    return Err("unterminated string");
  }

  Result<bool> ParseBool() {
    SkipSpace();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    return Result<bool>(Err("expected true/false"));
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Err(const std::string& what) {
    return Status::InvalidArgument("checkpoint JSON: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string CheckpointStore::PathFor(const std::string& key) const {
  return dir_ + "/" + SanitizeForFilename(key) + ".json";
}

Result<std::string> CheckpointStore::Load(const std::string& key) const {
  if (!enabled()) return Status::NotFound("checkpointing disabled");
  FAIREM_FAILPOINT("checkpoint_load");
  return ReadFileToString(PathFor(key));
}

Status CheckpointStore::Save(const std::string& key,
                             const std::string& payload) const {
  if (!enabled()) return Status::OK();
  FAIREM_FAILPOINT("checkpoint_save");
  return WriteFileDurable(PathFor(key), payload);
}

std::string GridCellToJson(const GridCellCheckpoint& cell) {
  std::ostringstream os;
  os << "{\"matcher\":";
  AppendJsonString(&os, cell.matcher);
  os << ",\"marker\":";
  AppendJsonString(&os, cell.marker);
  os << ",\"supported\":" << (cell.supported ? "true" : "false");
  os << ",\"error\":" << (cell.error ? "true" : "false");
  os << ",\"status\":";
  AppendJsonString(&os, cell.status);
  os << ",\"marks\":[";
  for (size_t i = 0; i < cell.marks.size(); ++i) {
    if (i > 0) os << ',';
    os << '[';
    AppendJsonString(&os, cell.marks[i].group);
    os << ',';
    AppendJsonString(&os, cell.marks[i].measure);
    os << ',' << (cell.marks[i].unfair ? "true" : "false") << ']';
  }
  os << "]}\n";
  return os.str();
}

Result<GridCellCheckpoint> GridCellFromJson(const std::string& json) {
  GridCellCheckpoint cell;
  JsonCursor cur(json);
  FAIREM_RETURN_NOT_OK(cur.Expect('{'));
  bool first = true;
  while (!cur.TryConsume('}')) {
    if (!first) FAIREM_RETURN_NOT_OK(cur.Expect(','));
    first = false;
    FAIREM_ASSIGN_OR_RETURN(std::string field, cur.ParseString());
    FAIREM_RETURN_NOT_OK(cur.Expect(':'));
    if (field == "matcher") {
      FAIREM_ASSIGN_OR_RETURN(cell.matcher, cur.ParseString());
    } else if (field == "marker") {
      FAIREM_ASSIGN_OR_RETURN(cell.marker, cur.ParseString());
    } else if (field == "supported") {
      FAIREM_ASSIGN_OR_RETURN(cell.supported, cur.ParseBool());
    } else if (field == "error") {
      FAIREM_ASSIGN_OR_RETURN(cell.error, cur.ParseBool());
    } else if (field == "status") {
      FAIREM_ASSIGN_OR_RETURN(cell.status, cur.ParseString());
    } else if (field == "marks") {
      FAIREM_RETURN_NOT_OK(cur.Expect('['));
      if (!cur.TryConsume(']')) {
        do {
          GridCellCheckpoint::Mark mark;
          FAIREM_RETURN_NOT_OK(cur.Expect('['));
          FAIREM_ASSIGN_OR_RETURN(mark.group, cur.ParseString());
          FAIREM_RETURN_NOT_OK(cur.Expect(','));
          FAIREM_ASSIGN_OR_RETURN(mark.measure, cur.ParseString());
          FAIREM_RETURN_NOT_OK(cur.Expect(','));
          FAIREM_ASSIGN_OR_RETURN(mark.unfair, cur.ParseBool());
          FAIREM_RETURN_NOT_OK(cur.Expect(']'));
          cell.marks.push_back(std::move(mark));
        } while (cur.TryConsume(','));
        FAIREM_RETURN_NOT_OK(cur.Expect(']'));
      }
    } else {
      return Status::InvalidArgument("checkpoint JSON: unknown field '" +
                                     field + "'");
    }
  }
  if (cell.matcher.empty()) {
    return Status::InvalidArgument("checkpoint JSON: missing matcher");
  }
  return cell;
}

std::string ScoreEntryToJson(const ScoreCacheEntry& entry) {
  std::string out = "{\"dataset\":" + JsonQuote(entry.dataset) +
                    ",\"matcher\":" + JsonQuote(entry.matcher) +
                    ",\"seed\":" + std::to_string(entry.seed) +
                    ",\"fingerprint\":" + std::to_string(entry.fingerprint) +
                    ",\"scores\":[";
  out.reserve(out.size() + 25 * entry.scores.size() + 3);
  char buf[32];
  for (size_t i = 0; i < entry.scores.size(); ++i) {
    if (i > 0) out.push_back(',');
    // 32 bytes hold any double's shortest form (at most 24 characters).
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), entry.scores[i]);
    out.append(buf, r.ptr);
  }
  out += "]}\n";
  return out;
}

Result<ScoreCacheEntry> ScoreEntryFromJson(const std::string& json) {
  FAIREM_ASSIGN_OR_RETURN(JsonValue root, JsonParse(json));
  auto field = [&](const char* name) -> Result<const JsonValue*> {
    const JsonValue* v = JsonFind(root, name);
    if (v == nullptr) {
      return Status::InvalidArgument(std::string("score entry: missing ") +
                                     name);
    }
    return v;
  };
  ScoreCacheEntry entry;
  FAIREM_ASSIGN_OR_RETURN(const JsonValue* dataset, field("dataset"));
  FAIREM_ASSIGN_OR_RETURN(entry.dataset, JsonAsString(*dataset, "dataset"));
  FAIREM_ASSIGN_OR_RETURN(const JsonValue* matcher, field("matcher"));
  FAIREM_ASSIGN_OR_RETURN(entry.matcher, JsonAsString(*matcher, "matcher"));
  FAIREM_ASSIGN_OR_RETURN(const JsonValue* seed, field("seed"));
  FAIREM_ASSIGN_OR_RETURN(entry.seed, JsonAsU64(*seed, "seed"));
  FAIREM_ASSIGN_OR_RETURN(const JsonValue* fingerprint, field("fingerprint"));
  FAIREM_ASSIGN_OR_RETURN(entry.fingerprint,
                          JsonAsU64(*fingerprint, "fingerprint"));
  FAIREM_ASSIGN_OR_RETURN(const JsonValue* scores, field("scores"));
  if (scores->kind != JsonValue::kArray) {
    return Status::InvalidArgument("score entry: scores is not an array");
  }
  entry.scores.reserve(scores->items.size());
  for (const JsonValue& score : scores->items) {
    // JsonAsDouble rejects non-finite values (e.g. an overflowing 1e999).
    FAIREM_ASSIGN_OR_RETURN(double value, JsonAsDouble(score, "score"));
    entry.scores.push_back(value);
  }
  return entry;
}

}  // namespace fairem
