#include "core/options.h"

#include <gtest/gtest.h>

#include <limits>

namespace silkmoth {
namespace {

TEST(OptionsTest, DefaultsAreValid) {
  Options o;
  EXPECT_EQ(o.Validate(), "");
}

TEST(OptionsTest, DeltaRange) {
  Options o;
  o.delta = 0.0;
  EXPECT_NE(o.Validate(), "");  // Footnote 2: δ = 0 is trivial, rejected.
  o.delta = -0.5;
  EXPECT_NE(o.Validate(), "");
  o.delta = 1.5;
  EXPECT_NE(o.Validate(), "");
  o.delta = 1.0;
  EXPECT_EQ(o.Validate(), "");
}

TEST(OptionsTest, AlphaRange) {
  Options o;
  o.alpha = -0.1;
  EXPECT_NE(o.Validate(), "");
  o.alpha = 1.0;
  EXPECT_NE(o.Validate(), "");
  o.alpha = 0.99;
  EXPECT_EQ(o.Validate(), "");
}

TEST(OptionsTest, NanThresholdsRejected) {
  Options o;
  o.delta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(o.Validate(), "");
  o = Options{};
  o.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(o.Validate(), "");
}

TEST(OptionsTest, ThreadsPositive) {
  Options o;
  o.num_threads = 0;
  EXPECT_NE(o.Validate(), "");
  o.num_threads = 8;
  EXPECT_EQ(o.Validate(), "");
}

TEST(MaxQTest, PaperFootnote11Values) {
  // "if α = 0.85, then q = 5"; α = 0.8 gives q = 3 (Table 3's note).
  EXPECT_EQ(MaxQForAlpha(0.85), 5);
  EXPECT_EQ(MaxQForAlpha(0.8), 3);
  EXPECT_EQ(MaxQForAlpha(0.75), 2);  // Limit 3.0 is integral: q < 3.
  EXPECT_EQ(MaxQForAlpha(0.7), 2);   // Limit 2.33.
}

TEST(MaxQTest, AlphaZeroUsesFallback) {
  EXPECT_EQ(MaxQForAlpha(0.0), 2);
  EXPECT_EQ(MaxQForAlpha(0.0, 4), 4);
}

TEST(MaxQTest, NeverBelowOne) {
  EXPECT_EQ(MaxQForAlpha(0.3), 1);  // Limit 0.43 -> clamped to 1.
  EXPECT_EQ(MaxQForAlpha(0.5), 1);  // Limit 1.0 -> q < 1 -> clamped.
}

TEST(EffectiveQTest, JaccardIgnoresQ) {
  Options o;
  o.phi = SimilarityKind::kJaccard;
  o.q = 7;
  EXPECT_EQ(o.EffectiveQ(), 0);
}

TEST(EffectiveQTest, AutoSelectsFromAlpha) {
  Options o;
  o.phi = SimilarityKind::kEds;
  o.alpha = 0.8;
  EXPECT_EQ(o.EffectiveQ(), 3);
  o.alpha = 0.85;
  EXPECT_EQ(o.EffectiveQ(), 5);
  o.alpha = 0.0;
  EXPECT_EQ(o.EffectiveQ(), 2);
}

TEST(EffectiveQTest, ExplicitQRespected) {
  Options o;
  o.phi = SimilarityKind::kEds;
  o.alpha = 0.0;
  o.q = 4;
  EXPECT_EQ(o.EffectiveQ(), 4);
  EXPECT_EQ(o.Validate(), "");
}

TEST(OptionsTest, QTooLargeForAlphaRejected) {
  Options o;
  o.phi = SimilarityKind::kEds;
  o.alpha = 0.8;  // Requires q < 4.
  o.q = 4;
  EXPECT_NE(o.Validate(), "");
  o.q = 3;
  EXPECT_EQ(o.Validate(), "");
}

TEST(NamesTest, EnumNames) {
  EXPECT_STREQ(RelatednessName(Relatedness::kSimilarity), "SET-SIMILARITY");
  EXPECT_STREQ(RelatednessName(Relatedness::kContainment), "SET-CONTAINMENT");
  EXPECT_STREQ(SignatureSchemeName(SignatureSchemeKind::kWeighted),
               "WEIGHTED");
  EXPECT_STREQ(SignatureSchemeName(SignatureSchemeKind::kCombUnweighted),
               "COMBUNWEIGHTED");
  EXPECT_STREQ(SignatureSchemeName(SignatureSchemeKind::kSkyline), "SKYLINE");
  EXPECT_STREQ(SignatureSchemeName(SignatureSchemeKind::kDichotomy),
               "DICHOTOMY");
}

}  // namespace
}  // namespace silkmoth
