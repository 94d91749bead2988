#ifndef FAIREM_UTIL_FLAGS_H_
#define FAIREM_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/result.h"
#include "src/util/string_util.h"

namespace fairem {

/// The one command-line grammar of the `fairem` CLI and every bench binary.
/// A binary registers each flag it reads, bound to the variable it sets
/// (whose initial value is the default), then parses. `--flag value` and
/// `--flag=value` are the same; a boolean takes no value; flags may come
/// before, between and after positionals; a repeated flag overwrites, but
/// list and repeated flags append. An unknown flag, a missing value and a
/// malformed or out-of-range value are errors that name the flag. The
/// usage synopsis is generated from the registrations, in order.
///
/// `name` is the whole spelling ("--scale", "-n"); `metavar` names the
/// value in the synopsis.
class FlagSet {
 public:
  void Bool(std::string name, bool* out);
  void String(std::string name, std::string* out, std::string metavar);
  /// As above; `*out` stays empty when the flag is absent, which tells an
  /// absent flag from an empty value.
  void String(std::string name, std::optional<std::string>* out,
              std::string metavar);
  /// Comma-separated; every occurrence appends its non-empty items.
  void List(std::string name, std::vector<std::string>* out,
            std::string metavar);
  /// Every occurrence appends its value.
  void Repeated(std::string name, std::vector<std::string>* out,
                std::string metavar);
  /// One of the listed spellings (compared lower-cased when `fold_case`),
  /// stored as its paired value. An empty spelling accepts an empty value
  /// and is left out of the synopsis.
  template <typename T>
  void Choice(std::string name, T* out,
              std::vector<std::pair<std::string, T>> choices,
              bool fold_case = false);
  /// A number of at least `min`. T is double (finite values), int or
  /// uint64_t (decimal integers; every uint64 round-trips exactly).
  template <typename T>
  void Number(std::string name, T* out, std::string metavar,
              std::type_identity_t<T> min = std::numeric_limits<T>::lowest());

  /// Parses `args`, the words after the program or subcommand name. The
  /// others go to `*positionals`, or are an error when it is null.
  Status Parse(const std::vector<std::string>& args,
               std::vector<std::string>* positionals) const;

  /// Parses argv[1..argc) with no positionals; on error prints it and the
  /// usage to stderr and exits 1.
  void ParseOrExit(int argc, char** argv) const;

  /// "[--scale S] [--pairwise] [--fail_on SPEC]...".
  std::string Synopsis() const;

 private:
  /// Sets the bound variable from a value; false when the value is invalid.
  using Setter = std::function<bool(const std::string&)>;

  struct Flag {
    std::string name;
    std::string metavar;  // empty for a boolean
    bool repeatable;
    Setter set;
  };

  std::vector<Flag> flags_;
};

template <typename T>
void FlagSet::Choice(std::string name, T* out,
                     std::vector<std::pair<std::string, T>> choices,
                     bool fold_case) {
  std::string spellings;
  for (const auto& choice : choices) {
    if (choice.first.empty()) continue;
    spellings += (spellings.empty() ? "" : "|") + choice.first;
  }
  Setter set = [out, choices = std::move(choices),
                fold_case](const std::string& text) {
    for (const auto& [spelling, value] : choices) {
      if (spelling != (fold_case ? ToLowerAscii(text) : text)) continue;
      *out = value;
      return true;
    }
    return false;
  };
  flags_.push_back({std::move(name), spellings, false, std::move(set)});
}

}  // namespace fairem

#endif  // FAIREM_UTIL_FLAGS_H_
