#include "src/datagen/music.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/datagen/pair_scan.h"
#include "src/datagen/perturb.h"
#include "src/util/string_util.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

struct GenreProfile {
  std::string genres;   // setwise cell value, e.g. "Country|Honky Tonk"
  enum class Family { kCountry, kRap, kPlain, kFrenchPop } family;
};

const std::vector<GenreProfile>& GenreProfiles() {
  using Family = GenreProfile::Family;
  static const auto& pool = *new std::vector<GenreProfile>{
      {"Country", Family::kCountry},
      {"Country|Cont. Country", Family::kCountry},
      {"Country|Honky Tonk", Family::kCountry},
      {"Cont. Country|Honky Tonk", Family::kCountry},
      {"Hip-Hop/Rap", Family::kRap},
      {"Rap", Family::kRap},
      {"Rap & Hip-Hop|Rap", Family::kRap},
      {"Hip-Hop/Rap|Rap", Family::kRap},
      {"Pop", Family::kPlain},
      {"Rock", Family::kPlain},
      {"Pop|Rock", Family::kPlain},
      {"Dance", Family::kPlain},
      {"Dance|Electronic", Family::kPlain},
      {"R&B", Family::kPlain},
      {"Jazz", Family::kPlain},
      {"French-Pop", Family::kFrenchPop},
  };
  return pool;
}

const std::vector<std::string>& CountryArtists() {
  static const auto& pool = *new std::vector<std::string>{
      "K. Chesney", "T. McGraw", "B. Paisley", "A. Jackson", "G. Strait"};
  return pool;
}

const std::vector<std::string>& RapArtists() {
  static const auto& pool = *new std::vector<std::string>{
      "J. Cole", "N. Minaj", "K. Lamar", "Drake", "L. Wayne"};
  return pool;
}

const std::vector<std::string>& PlainArtists() {
  static const auto& pool = *new std::vector<std::string>{
      "T. Swift",  "E. Sheeran", "Adele",    "Coldplay",  "Beyonce",
      "M. Buble",  "Rihanna",    "Maroon 5", "P!nk",      "Shakira"};
  return pool;
}

const std::vector<std::string>& ShortTitleWords() {
  static const auto& pool = *new std::vector<std::string>{
      "Tequila",   "Whiskey",   "Summer",     "Sunset",    "Midnight",
      "Back Road", "Home",      "River",      "Old Truck", "Blue Sky"};
  return pool;
}

/// Country titles come from a tiny inflection family ("Loves Me" /
/// "Likes Me" / "Loved Me") so that distinct songs by the same artist are
/// orthographically near-identical — the paper's DITTO false-positive
/// ("Tequila Loves Me" / "Likes Me", both by K. Chesney).
std::string CountryTitle(Rng* rng) {
  static const std::vector<std::string>& verbs = *new std::vector<std::string>{
      "Love", "Like", "Need", "Want", "Hold", "Know", "Miss"};
  static const std::vector<std::string>& inflections =
      *new std::vector<std::string>{"", "s", "d", "in"};
  std::string title;
  if (rng->NextBool(0.5)) {
    title = rng->Choice(ShortTitleWords()) + " ";
  }
  title += rng->Choice(verbs) + rng->Choice(inflections) + " Me";
  return title;
}

const std::vector<std::string>& RapTitleCores() {
  static const auto& pool = *new std::vector<std::string>{
      "Money Moves", "City Lights", "No Limits", "Realest", "Hustle Hard",
      "Paper Chase", "Streets Talk", "Came Up",  "All Night", "On My Way"};
  return pool;
}

const std::vector<std::string>& FrenchTitles() {
  static const auto& pool = *new std::vector<std::string>{
      "La Vie en Couleurs", "Sous le Ciel", "Je Te Vois", "Nuit Blanche",
      "Mon Etoile", "Au Revoir"};
  return pool;
}

struct Song {
  std::string title;
  std::string artist;
  std::string album;
  std::string genres;
  std::string time;
  std::string price;
  std::string copyright;
  std::string released;
  GenreProfile::Family family;
};

std::string RandomTime(Rng* rng) {
  return std::to_string(rng->NextInt(2, 5)) + ":" +
         std::to_string(rng->NextInt(10, 59));
}

/// The Amazon view of a song: formatting changes, and the rap family gets
/// the heavy variants (featuring lists, remix tags, censoring) that make
/// its true matches textually hard.
Song AmazonView(const Song& s, Rng* rng) {
  Song out = s;
  if (s.family == GenreProfile::Family::kRap) {
    switch (rng->NextBounded(3)) {
      case 0:
        out.title = s.title + " ( feat. " + rng->Choice(RapArtists()) + " )";
        break;
      case 1:
        out.title = s.title + " [ Explicit Remix ]";
        break;
      default:
        out.title = s.title + " ( Album Version ) [ feat. " +
                    rng->Choice(RapArtists()) + " ]";
        break;
    }
    // Amazon also drops or reformats the album often for this catalogue,
    // and renders durations in seconds — true rap matches look different
    // on *every* attribute unless the representation is robust.
    if (rng->NextBool(0.5)) out.album = s.album + " [ Explicit ]";
    if (rng->NextBool(0.5)) {
      std::vector<std::string> parts = Split(s.time, ':');
      if (parts.size() == 2) {
        out.time = std::to_string(std::stoi(parts[0]) * 60 +
                                  std::stoi(parts[1])) + " sec";
      }
    }
  } else {
    if (rng->NextBool(0.4)) out.title = s.title + " - Single";
    if (rng->NextBool(0.3)) out.title = PerturbString(out.title, rng);
  }
  if (rng->NextBool(0.5)) out.price = "$ " + s.price;
  if (rng->NextBool(0.3)) out.time = s.time + "0";
  return out;
}

}  // namespace

Result<EMDataset> GenerateItunesAmazon(const ItunesAmazonOptions& options) {
  Rng rng(options.seed);
  FAIREM_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Make({"song", "artist", "album", "genre", "time", "price",
                    "copyright", "released"}));
  EMDataset ds;
  ds.name = "iTunes-Amazon";
  ds.table_a = Table("itunes", schema);
  ds.table_b = Table("amazon", schema);
  ds.matching_attrs = {"song", "artist", "album", "time",
                       "price", "copyright", "released"};
  ds.sensitive_attr = "genre";
  ds.sensitive_kind = SensitiveAttrKind::kSetwise;

  std::vector<Song> songs;
  using Family = GenreProfile::Family;
  for (int i = 0; i < options.num_songs; ++i) {
    const GenreProfile& profile = rng.Choice(GenreProfiles());
    Song s;
    s.genres = profile.genres;
    s.family = profile.family;
    switch (profile.family) {
      case Family::kCountry: {
        s.artist = rng.Choice(CountryArtists());
        s.title = CountryTitle(&rng);
        break;
      }
      case Family::kRap: {
        s.artist = rng.Choice(RapArtists());
        // "Pt. N" keeps titles distinct; the matching difficulty for rap
        // comes from the Amazon-side featuring/remix decorations instead.
        s.title = rng.Choice(RapTitleCores()) + " Pt. " +
                  std::to_string(rng.NextInt(1, 40));
        break;
      }
      case Family::kFrenchPop: {
        s.artist = "C. Dion";
        s.title = rng.Choice(FrenchTitles()) + " " +
                  std::to_string(rng.NextInt(1, 40));
        break;
      }
      default: {
        // Two distinct words + number: plain-genre titles never collide.
        s.artist = rng.Choice(PlainArtists());
        std::string w1 = rng.Choice(ShortTitleWords());
        std::string w2 = rng.Choice(ShortTitleWords());
        s.title = w1 + " " + w2 + " " + std::to_string(rng.NextInt(1, 99));
        break;
      }
    }
    if (profile.family == Family::kCountry) {
      // Country catalogues cluster on one compilation: same-artist trap
      // pairs agree on album / year / price / copyright and differ only in
      // the title inflection and duration — invisible to a pooled
      // serialized-text representation, plainly visible to per-attribute
      // character features.
      s.album = s.artist + " Greatest Hits";
      s.price = "0.99";
      s.released = "2010";
      s.copyright = "2010 " + s.artist + " Records";
    } else {
      s.album = s.artist + " Album " + std::to_string(rng.NextInt(1, 9));
      s.price = rng.NextBool(0.5) ? "0.99" : "1.29";
      s.released = std::to_string(rng.NextInt(2005, 2014));
      s.copyright = s.released + " " + s.artist + " Records";
    }
    s.time = RandomTime(&rng);
    songs.push_back(s);
  }

  std::vector<LabeledPair> pairs;
  for (size_t id = 0; id < songs.size(); ++id) {
    const Song& s = songs[id];
    FAIREM_RETURN_NOT_OK(ds.table_a.AppendValues(
        static_cast<int64_t>(id),
        {s.title, s.artist, s.album, s.genres, s.time, s.price, s.copyright,
         s.released}));
    Song amazon = AmazonView(s, &rng);
    FAIREM_RETURN_NOT_OK(ds.table_b.AppendValues(
        static_cast<int64_t>(id),
        {amazon.title, amazon.artist, amazon.album, amazon.genres,
         amazon.time, amazon.price, amazon.copyright, amazon.released}));
    // French-Pop ground truth contains only non-matches: its true pairs are
    // excluded from the candidate set (the SP false-flag setup of §5.3.2).
    if (s.family != Family::kFrenchPop) {
      pairs.push_back({id, id, true});
    }
  }
  // Blocked hard negatives: distinct songs by the same artist with
  // near-identical titles — the "Tequila Loves Me" / "Likes Me" trap pairs.
  // These concentrate in the country family by construction. Scanned per
  // artist, then sorted into the all-pairs loop's row-major order.
  {
    std::map<std::string_view, std::vector<size_t>> songs_by_artist;
    for (size_t i = 0; i < songs.size(); ++i) {
      songs_by_artist[songs[i].artist].push_back(i);
    }
    std::vector<std::pair<size_t, size_t>> traps;
    for (const auto& [artist, ids] : songs_by_artist) {
      std::vector<std::optional<std::string_view>> titles;
      for (size_t id : ids) titles.emplace_back(songs[id].title);
      for (auto [x, y] : JaroWinklerNearPairs(titles, titles, 0.84)) {
        if (x != y) traps.emplace_back(ids[x], ids[y]);
      }
    }
    std::sort(traps.begin(), traps.end());
    for (auto [i, j] : traps) pairs.push_back({i, j, false});
  }
  for (size_t i = 0; i < songs.size(); ++i) {
    std::set<size_t> used;
    for (int n = 0; n < options.negatives_per_record; ++n) {
      // Half the negatives come from the same artist (hard negatives; for
      // country artists these are the near-title traps).
      size_t j;
      if (rng.NextBool(0.5)) {
        j = static_cast<size_t>(rng.NextBounded(songs.size()));
        if (songs[j].artist != songs[i].artist) {
          j = static_cast<size_t>(rng.NextBounded(songs.size()));
        }
      } else {
        j = static_cast<size_t>(rng.NextBounded(songs.size()));
      }
      if (j == i || !used.insert(j).second) continue;
      pairs.push_back({i, j, false});
    }
  }
  {
    std::set<std::pair<size_t, size_t>> seen;
    std::vector<LabeledPair> unique;
    for (const auto& p : pairs) {
      if (seen.insert({p.left, p.right}).second) unique.push_back(p);
    }
    pairs = std::move(unique);
  }
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(pairs), options.train_frac,
                                  options.valid_frac, &rng, &ds.train,
                                  &ds.valid, &ds.test));
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

}  // namespace fairem
