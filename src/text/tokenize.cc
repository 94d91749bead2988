#include "src/text/tokenize.h"

#include <cctype>

#include "src/util/logging.h"

namespace fairem {

std::vector<std::string> WhitespaceTokenize(std::string_view s) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) tokens.emplace_back(s.substr(start, i - start));
  }
  return tokens;
}

size_t CountWhitespaceTokens(std::string_view s) {
  size_t count = 0;
  bool in_token = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_token = false;
    } else if (!in_token) {
      in_token = true;
      ++count;
    }
  }
  return count;
}

std::vector<std::string> AlnumTokenize(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      current.push_back(c);
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::vector<std::string> QGrams(std::string_view s, int q, bool pad) {
  FAIREM_CHECK(q >= 1, "QGrams requires q >= 1");
  std::string padded;
  if (pad && q > 1) {
    padded.assign(static_cast<size_t>(q - 1), '#');
    padded.append(s);
    padded.append(static_cast<size_t>(q - 1), '$');
  } else {
    padded.assign(s);
  }
  std::vector<std::string> grams;
  if (padded.size() < static_cast<size_t>(q)) return grams;
  grams.reserve(padded.size() - static_cast<size_t>(q) + 1);
  for (size_t i = 0; i + static_cast<size_t>(q) <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, static_cast<size_t>(q)));
  }
  return grams;
}

}  // namespace fairem
