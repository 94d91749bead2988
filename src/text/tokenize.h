#ifndef FAIREM_TEXT_TOKENIZE_H_
#define FAIREM_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairem {

/// Splits on runs of ASCII whitespace. "a  b" -> {"a", "b"}.
std::vector<std::string> WhitespaceTokenize(std::string_view s);

/// WhitespaceTokenize(s).size() without materializing the tokens — the
/// allocation-free form for scan paths that only need the count
/// (attribute-type inference).
size_t CountWhitespaceTokens(std::string_view s);

/// Splits on runs of non-alphanumeric bytes, lower-casing ASCII letters.
/// "Qing-Hu Huang" -> {"qing", "hu", "huang"}.
std::vector<std::string> AlnumTokenize(std::string_view s);

/// Character q-grams of `s`. If `pad` is true the string is padded with
/// (q-1) '#' on the left and '$' on the right, so short strings still
/// produce grams. q must be >= 1.
std::vector<std::string> QGrams(std::string_view s, int q, bool pad = true);

}  // namespace fairem

#endif  // FAIREM_TEXT_TOKENIZE_H_
