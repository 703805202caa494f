/// Data-quality curation in the ingestion transform (paper goal 2:
/// "ensuring data quality and provenance"): invalid readings and gross
/// outliers are dropped before the data reaches the analyses.

#include <gtest/gtest.h>

#include <cmath>

#include "core/usecase_ww.hpp"
#include "util/csv.hpp"

namespace oc = osprey::core;
namespace ou = osprey::util;
using ou::Value;
using ou::ValueObject;

namespace {

/// Build a use case just to get at its registered harnesses.
struct Harnesses {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase;
  Harnesses() : usecase(platform, oc::WwUseCaseConfig{}) { usecase.build(); }
};

Value transform(Harnesses& h, const std::string& csv) {
  ValueObject args;
  args["input"] = Value(csv);
  args["url"] = Value("https://test");
  args["args"] = Value(nullptr);
  return h.usecase.harnesses().invoke("ww-transform", Value(args));
}

std::string make_csv(const std::vector<double>& concentrations) {
  ou::CsvTable t({"day", "plant", "concentration_gc_per_l"});
  for (std::size_t i = 0; i < concentrations.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", concentrations[i]);
    t.add_row({std::to_string(i), "TestPlant", buf});
  }
  return t.to_string();
}

}  // namespace

TEST(DataQuality, CleanDataPassesThrough) {
  Harnesses h;
  Value result = transform(h, make_csv({100, 120, 95, 110, 105, 98}));
  EXPECT_EQ(result.at("dropped").as_int(), 0);
  ou::CsvTable out = ou::CsvTable::parse(result.at("output").as_string());
  EXPECT_EQ(out.num_rows(), 6u);
  EXPECT_TRUE(out.has_column("log10_concentration"));
}

TEST(DataQuality, NonPositiveReadingsDropped) {
  Harnesses h;
  Value result = transform(h, make_csv({100, 0, 120, -5, 95}));
  EXPECT_EQ(result.at("dropped").as_int(), 2);
  ou::CsvTable out = ou::CsvTable::parse(result.at("output").as_string());
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(DataQuality, GrossOutliersDropped) {
  Harnesses h;
  // A lab error ten-million-fold above the rest.
  Value result =
      transform(h, make_csv({100, 120, 95, 110, 1.0e9, 105, 98, 102}));
  EXPECT_EQ(result.at("dropped").as_int(), 1);
  ou::CsvTable out = ou::CsvTable::parse(result.at("output").as_string());
  for (double v : out.column_doubles("concentration_gc_per_l")) {
    EXPECT_LT(v, 1000.0);
  }
}

TEST(DataQuality, EpidemicDynamicRangeIsNotFlaggedAsOutliers) {
  // A genuine wave spanning ~1.5 decades must survive intact.
  Harnesses h;
  std::vector<double> wave;
  for (int t = 0; t < 30; ++t) {
    wave.push_back(50.0 * std::pow(10.0, 1.5 * std::sin(M_PI * t / 30.0)));
  }
  Value result = transform(h, make_csv(wave));
  EXPECT_EQ(result.at("dropped").as_int(), 0);
}

TEST(DataQuality, AllInvalidYieldsEmptyTable) {
  Harnesses h;
  Value result = transform(h, make_csv({0, -1, 0}));
  EXPECT_EQ(result.at("dropped").as_int(), 3);
  ou::CsvTable out = ou::CsvTable::parse(result.at("output").as_string());
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(DataQuality, FeedWithBlankLineKeepsEverySample) {
  // An upstream feed with a stray blank line mid-file: every sample
  // after it must still reach the analyses.
  std::string csv = make_csv({100, 120, 95, 110, 105, 98});
  std::size_t third_row = 0;
  for (int line = 0; line < 4; ++line) third_row = csv.find('\n', third_row) + 1;
  csv.insert(third_row, "\n");
  Harnesses h;
  Value result = transform(h, csv);
  EXPECT_EQ(result.at("dropped").as_int(), 0);
  ou::CsvTable out = ou::CsvTable::parse(result.at("output").as_string());
  ASSERT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.column_doubles("day"),
            (std::vector<double>{0, 1, 2, 3, 4, 5}));
}

namespace {

Value aggregate(Harnesses& h, const std::string& bad_draws) {
  ValueObject draws;
  draws["plant-a"] = Value(std::string("d0,d1,d2\n1.00000,1.10000,1.20000\n"
                                       "0.90000,1.00000,1.10000\n"));
  draws["plant-b"] = Value(bad_draws);
  ValueObject weights;
  weights["plant-a"] = Value(0.5);
  weights["plant-b"] = Value(0.5);
  ValueObject args;
  args["draws"] = Value(draws);
  args["weights"] = Value(weights);
  return h.usecase.harnesses().invoke("rt-aggregate", Value(args));
}

}  // namespace

TEST(DataQuality, AggregateRejectsMalformedDraws) {
  // A draw that is not a number must fail the ensemble run, not enter
  // the population-weighted average as 0.
  Harnesses h;
  Value ok = aggregate(h, "d0,d1,d2\n1.20000,1.30000,1.40000\n"
                          "1.00000,1.10000,1.20000\n");
  ou::CsvTable agg = ou::CsvTable::parse(ok.at("aggregate_csv").as_string());
  EXPECT_EQ(agg.num_rows(), 3u);
  EXPECT_GT(agg.cell_double(0, "median"), 0.9);

  const char* kBad[] = {
      "d0,d1,d2\n1.20000,oops,1.40000\n1.00000,1.10000,1.20000\n",  // text
      "d0,d1,d2\n1.20000,,1.40000\n1.00000,1.10000,1.20000\n",      // empty
      "d0,d1,d2\n1.20000,1.30000\n1.00000,1.10000,1.20000\n",       // ragged
  };
  for (const char* bad : kBad) {
    EXPECT_THROW(aggregate(h, bad), ou::InvalidArgument) << bad;
  }
}
