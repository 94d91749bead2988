#include "src/datagen/products.h"

#include <set>
#include <string>
#include <vector>

#include "src/datagen/pair_scan.h"
#include "src/util/rng.h"

namespace fairem {
namespace {

struct Offer {
  std::string title;
  std::string company;
  int64_t product_id;
};

struct ProductTables {
  std::vector<Offer> left;
  std::vector<Offer> right;
};

/// Assembles an EMDataset from two offer lists with sampled negatives.
Result<EMDataset> BuildProductDataset(std::string name, ProductTables tables,
                                      const ProductOptions& options,
                                      Rng* rng) {
  FAIREM_ASSIGN_OR_RETURN(Schema schema, Schema::Make({"title", "company"}));
  EMDataset ds;
  ds.name = std::move(name);
  ds.table_a = Table("offers_left", schema);
  ds.table_b = Table("offers_right", schema);
  ds.matching_attrs = {"title"};  // the sensitive company column is hidden
  ds.sensitive_attr = "company";
  ds.sensitive_kind = SensitiveAttrKind::kMultiValued;
  // Table 4 sizes of the WDC tasks this simulates (Shoes is the larger).
  ds.simulated_full_scale_pairs = ds.name == "Shoes" ? 24111u + 10717u
                                                     : 5476u + 2434u;

  for (const Offer& o : tables.left) {
    FAIREM_RETURN_NOT_OK(
        ds.table_a.AppendValues(o.product_id, {o.title, o.company}));
  }
  for (const Offer& o : tables.right) {
    FAIREM_RETURN_NOT_OK(
        ds.table_b.AppendValues(o.product_id, {o.title, o.company}));
  }
  std::vector<LabeledPair> pairs = SameEntityPairs(ds.table_a, ds.table_b);
  for (size_t i = 0; i < tables.left.size(); ++i) {
    std::set<size_t> used;
    for (int n = 0; n < options.negatives_per_record; ++n) {
      size_t j = static_cast<size_t>(rng->NextBounded(tables.right.size()));
      // Prefer same-company hard negatives half the time.
      if (rng->NextBool(0.5) &&
          tables.right[j].company != tables.left[i].company) {
        j = static_cast<size_t>(rng->NextBounded(tables.right.size()));
      }
      if (tables.left[i].product_id == tables.right[j].product_id) continue;
      if (!used.insert(j).second) continue;
      pairs.push_back({i, j, false});
    }
  }
  FAIREM_RETURN_NOT_OK(SplitPairs(std::move(pairs), options.train_frac,
                                  options.valid_frac, rng, &ds.train,
                                  &ds.valid, &ds.test));
  FAIREM_RETURN_NOT_OK(ds.Validate());
  return ds;
}

struct CameraBrand {
  const char* brand;
  std::vector<const char*> lines;
};

const std::vector<CameraBrand>& CameraBrands() {
  static const auto& pool = *new std::vector<CameraBrand>{
      {"Sony", {"Cyber-shot RX100", "Alpha A6000", "Cyber-shot WX350"}},
      {"Canon", {"EOS 70D", "PowerShot G7X", "EOS Rebel T5"}},
      {"Nikon", {"D3300", "Coolpix P900", "D750"}},
      {"Fujifilm", {"X-T10", "FinePix S9900"}},
      {"Olympus", {"OM-D E-M10", "Tough TG-4"}},
      {"Panasonic", {"Lumix GH4", "Lumix ZS50"}},
      {"GoPro", {"Hero4 Silver", "Hero4 Black"}},
      {"Leica", {"Q Typ 116"}},
  };
  return pool;
}

const std::vector<std::string>& CameraRetailTails() {
  // Long per-retailer boilerplate with disjoint vocabularies (including the
  // Dutch "Prijzen" trap): token-overlap features drown in it, while
  // SIF-weighted encoders discount the frequent tokens.
  static const auto& pool = *new std::vector<std::string>{
      "Digital Camera Full Specifications Prices Review - CNET",
      "Point Shoot Digicam Deals Weekly Ad Best Buy Store",
      "Digital Camera Bundle Kit Free Shipping Amazon.com Marketplace",
      "Mirrorless Body Only Authorized Dealer B&H Photo Video NYC",
      "Zwart Digitale Fotocamera Vergelijk Prijzen Tweakers Pricewatch NL",
      "Compactcamera Aanbieding Laagste Prijs Kieskeurig Vandaag NL"};
  return pool;
}

const std::vector<const char*> kCameraVariants = {"", "II", "III", "IV"};

/// Model-number formatting by retailer convention: "RX100" / "RX 100" /
/// "DSC-RX100" / "rx100kit". Offers of the *same* product always use
/// different conventions (the formatting variance of real product feeds):
/// word-level token features see disjoint tokens for true matches, while
/// subword embeddings still align them — the regime where non-neural
/// matchers collapse on textual data and neural matchers survive (§5.3.3).
std::string FormatModel(const std::string& line, int style) {
  switch (style % 4) {
    case 0:
      return line;
    case 1: {
      std::string spaced;
      for (size_t i = 0; i < line.size(); ++i) {
        if (i > 0 && isdigit(static_cast<unsigned char>(line[i])) &&
            isalpha(static_cast<unsigned char>(line[i - 1]))) {
          spaced.push_back(' ');
        }
        spaced.push_back(line[i]);
      }
      return spaced;
    }
    case 2:
      return "DSC-" + line;
    default: {
      std::string compact;
      for (char c : line) {
        if (c != ' ' && c != '-') compact.push_back(c);
      }
      return compact + "KIT";
    }
  }
}

struct ShoeBrand {
  const char* brand;
  std::vector<const char*> models;
};

const std::vector<ShoeBrand>& ShoeBrands() {
  static const auto& pool = *new std::vector<ShoeBrand>{
      {"Nike", {"Air Max 90", "Free RN", "Revolution 3", "Air Force 1"}},
      {"Adidas", {"Ultra Boost", "Gazelle", "Superstar", "NMD R1"}},
      {"Puma", {"Suede Classic", "Ignite", "Roma"}},
      {"Reebok", {"Classic Leather", "Nano 6"}},
      {"Asics", {"Gel-Kayano 22", "GT-2000"}},
      {"New Balance", {"574", "990v3"}},
      {"Clarks", {"Desert Boot", "Originals Wallabee"}},
  };
  return pool;
}

const std::vector<std::string>& ShoeTails() {
  static const auto& pool = *new std::vector<std::string>{
      "Running Shoes Free Returns Customer Favorites Zappos.com",
      "Sneakers Athletic Footwear Release Dates Foot Locker Official",
      "Shoes Everyday Low Price Prime Delivery Amazon.com Marketplace",
      "Sportschoenen Vergelijk Laagste Prijzen Beslist Webshop NL",
      "Shoes Clearance Outlet Final Sale Discount 6pm.com",
      "Trainers Exclusive Drops Launch Calendar JD Sports UK"};
  return pool;
}

const std::vector<const char*> kGenders = {"Men's", "Women's", "Kids"};
const std::vector<const char*> kColors = {"Black", "White", "Navy",
                                          "Red",   "Grey",  "Blue"};

}  // namespace

Result<EMDataset> GenerateCameras(const ProductOptions& options) {
  Rng rng(options.seed);
  ProductTables tables;
  int64_t product_id = 0;
  for (int p = 0; p < options.num_products; ++p) {
    const CameraBrand& brand = rng.Choice(CameraBrands());
    std::string line = brand.lines[rng.NextBounded(brand.lines.size())];
    std::string variant = kCameraVariants[rng.NextBounded(
        kCameraVariants.size())];
    std::string mp =
        std::to_string(rng.NextInt(12, 24)) + "." +
        std::to_string(rng.NextInt(0, 9)) + "MP";
    int style_offset = static_cast<int>(rng.NextBounded(4));
    for (int o = 0; o < options.offers_per_product; ++o) {
      Offer offer;
      offer.product_id = product_id;
      offer.company = brand.brand;
      // Each offer uses a different formatting convention.
      std::string model = FormatModel(line, style_offset + o);
      offer.title = std::string(brand.brand) + " " + model;
      if (!variant.empty()) offer.title += " " + variant;
      if (rng.NextBool(0.6)) offer.title += " " + mp;
      offer.title += " " + rng.Choice(CameraRetailTails());
      (o % 2 == 0 ? tables.left : tables.right).push_back(offer);
    }
    ++product_id;
  }
  return BuildProductDataset("Cameras", std::move(tables), options, &rng);
}

Result<EMDataset> GenerateShoes(const ProductOptions& options) {
  Rng rng(options.seed ^ 0x5f5f5f5fULL);
  ProductTables tables;
  int64_t product_id = 0;
  for (int p = 0; p < options.num_products; ++p) {
    const ShoeBrand& brand = rng.Choice(ShoeBrands());
    std::string model = brand.models[rng.NextBounded(brand.models.size())];
    std::string gender = kGenders[rng.NextBounded(kGenders.size())];
    std::string color = kColors[rng.NextBounded(kColors.size())];
    int style_offset = static_cast<int>(rng.NextBounded(4));
    for (int o = 0; o < options.offers_per_product; ++o) {
      Offer offer;
      offer.product_id = product_id;
      offer.company = brand.brand;
      // Per-offer formatting of the model name: "Air Max 90" / "AirMax90"
      // / "Air-Max 90" / "airmax 90s" — word tokens diverge, subwords
      // align.
      std::string styled = model;
      switch ((style_offset + o) % 4) {
        case 1: {
          std::string compact;
          for (char c : model) {
            if (c != ' ') compact.push_back(c);
          }
          styled = compact;
          break;
        }
        case 2: {
          styled = model;
          for (char& c : styled) {
            if (c == ' ') c = '-';
          }
          break;
        }
        case 3: {
          std::string compact;
          for (char c : model) {
            if (c != ' ') compact.push_back(c);
          }
          styled = compact + "s";
          break;
        }
        default:
          break;
      }
      offer.title = std::string(brand.brand) + " " + styled;
      if (rng.NextBool(0.7)) offer.title += " " + gender;
      if (rng.NextBool(0.6)) offer.title += " " + color;
      if (rng.NextBool(0.4)) {
        offer.title += " Size " + std::to_string(rng.NextInt(6, 13));
      }
      offer.title += " " + rng.Choice(ShoeTails());
      (o % 2 == 0 ? tables.left : tables.right).push_back(offer);
    }
    ++product_id;
  }
  return BuildProductDataset("Shoes", std::move(tables), options, &rng);
}

}  // namespace fairem
