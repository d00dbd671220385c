#include <gtest/gtest.h>

#include <cmath>

#include "radloc/geom/polygon.hpp"
#include "radloc/radiation/environment.hpp"
#include "radloc/radiation/intensity_model.hpp"
#include "radloc/radiation/materials.hpp"
#include "radloc/radiation/source.hpp"
#include "radloc/sensornet/sensor.hpp"

namespace radloc {
namespace {

TEST(FreeSpace, Eq1AtKnownDistances) {
  const Source s{{0, 0}, 100.0};
  // At the source: A / (1 + 0) = A.
  EXPECT_DOUBLE_EQ(free_space_intensity({0, 0}, s), 100.0);
  // At distance 3: A / (1 + 9) = 10.
  EXPECT_DOUBLE_EQ(free_space_intensity({3, 0}, s), 10.0);
  EXPECT_DOUBLE_EQ(free_space_intensity({0, 3}, s), 10.0);
}

TEST(FreeSpace, MonotoneDecreasingInDistance) {
  const Source s{{50, 50}, 42.0};
  double prev = free_space_intensity({50, 50}, s);
  for (double d = 1.0; d < 100.0; d += 1.0) {
    const double cur = free_space_intensity({50 + d, 50}, s);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Shielding, Eq2HalvesAtHalfValueLayer) {
  // mu = 0.0693 halves the intensity every ln(2)/0.0693 ~ 10 units.
  const double hvl = std::log(2.0) / 0.0693;
  EXPECT_NEAR(shielded_intensity(100.0, 0.0693, hvl), 50.0, 1e-6);
  EXPECT_NEAR(shielded_intensity(100.0, 0.0693, 2.0 * hvl), 25.0, 1e-6);
  EXPECT_DOUBLE_EQ(shielded_intensity(100.0, 0.0693, 0.0), 100.0);
}

TEST(Materials, LeadConcreteEquivalence) {
  // Paper Sec. III: 1 cm of lead absorbs as much as ~6 cm of concrete.
  const double eq = equivalent_thickness(Material::kLead, 1.0, Material::kConcrete);
  EXPECT_NEAR(eq, 6.0, 0.2);
}

TEST(Materials, OrderingByStoppingPower) {
  EXPECT_GT(attenuation_coefficient(Material::kLead), attenuation_coefficient(Material::kSteel));
  EXPECT_GT(attenuation_coefficient(Material::kSteel),
            attenuation_coefficient(Material::kConcrete));
  EXPECT_GT(attenuation_coefficient(Material::kConcrete),
            attenuation_coefficient(Material::kWood));
}

TEST(Materials, HalfValueLayerDefinition) {
  for (const auto m : {Material::kLead, Material::kConcrete, Material::kWater}) {
    const double hvl = half_value_layer(m);
    EXPECT_NEAR(std::exp(-attenuation_coefficient(m) * hvl), 0.5, 1e-12);
  }
  EXPECT_FALSE(material_name(Material::kLead).empty());
}

TEST(Environment, PathAttenuationThroughSlab) {
  Environment env(make_area(100, 100));
  env.add_obstacle(Obstacle(make_rect(40, 0, 50, 100), 0.0693));
  // Path crossing the 10-unit slab orthogonally: mu * l = 0.693 -> T ~ 0.5.
  EXPECT_NEAR(env.transmission({{0, 50}, {100, 50}}), std::exp(-0.693), 1e-9);
  // Path missing the slab.
  EXPECT_DOUBLE_EQ(env.transmission({{0, 50}, {30, 50}}), 1.0);
}

TEST(Environment, MultipleObstaclesCompose) {
  Environment env(make_area(100, 100));
  env.add_obstacle(Obstacle(make_rect(20, 0, 30, 100), 0.0693));  // T ~ 0.5
  env.add_obstacle(Obstacle(make_rect(60, 0, 70, 100), 0.0693));  // T ~ 0.5
  EXPECT_NEAR(env.transmission({{0, 50}, {100, 50}}), std::exp(-2.0 * 0.693), 1e-9);
}

TEST(Environment, WithoutObstaclesStripsAll) {
  Environment env(make_area(10, 10), {Obstacle(make_rect(4, 0, 6, 10), 1.0)});
  EXPECT_TRUE(env.has_obstacles());
  const Environment stripped = env.without_obstacles();
  EXPECT_FALSE(stripped.has_obstacles());
  EXPECT_EQ(stripped.bounds(), env.bounds());
  EXPECT_DOUBLE_EQ(stripped.transmission({{0, 5}, {10, 5}}), 1.0);
}

TEST(Intensity, Eq3CombinesFadingAndShielding) {
  Environment env(make_area(100, 100));
  env.add_obstacle(Obstacle(make_rect(40, 0, 50, 100), 0.0693));
  const Source s{{0, 50}, 100.0};
  const Point2 x{100, 50};
  const double expected = 100.0 / (1.0 + 100.0 * 100.0) * std::exp(-0.693);
  EXPECT_NEAR(intensity(x, s, env), expected, 1e-9);
}

TEST(ExpectedCpm, Eq4SuperposesSourcesAndBackground) {
  Environment env(make_area(100, 100));
  const std::vector<Source> sources{{{10, 0}, 5.0}, {{0, 10}, 7.0}};
  const SensorResponse resp{2.0e-4, 5.0};
  const Point2 at{0, 0};
  const double expected = kMicroCurieToCpm * 2.0e-4 * (5.0 / 101.0 + 7.0 / 101.0) + 5.0;
  EXPECT_NEAR(expected_cpm(at, sources, env, resp), expected, 1e-9);
}

TEST(ExpectedCpm, NoSourcesGivesBackground) {
  Environment env(make_area(10, 10));
  const SensorResponse resp{1.0, 12.5};
  EXPECT_DOUBLE_EQ(expected_cpm({5, 5}, {}, env, resp), 12.5);
}

TEST(ExpectedCpm, SingleVariantsAgree) {
  Environment env(make_area(100, 100));
  const Source hyp{{30, 40}, 50.0};
  const SensorResponse resp{kDefaultEfficiency, 5.0};
  const Point2 at{10, 10};
  // With no obstacles the full and free-space single-source models agree.
  EXPECT_DOUBLE_EQ(expected_cpm_single(at, hyp, env, resp),
                   expected_cpm_single_free_space(at, hyp, resp));

  env.add_obstacle(Obstacle(make_rect(15, 0, 25, 100), 0.0693));
  EXPECT_LT(expected_cpm_single(at, hyp, env, resp),
            expected_cpm_single_free_space(at, hyp, resp));
}

TEST(ExpectedCpm, EfficiencyScalesSourceTermOnly) {
  Environment env(make_area(100, 100));
  const std::vector<Source> sources{{{10, 10}, 5.0}};
  const double base =
      expected_cpm({0, 0}, sources, env, SensorResponse{1e-4, 0.0});
  const double doubled =
      expected_cpm({0, 0}, sources, env, SensorResponse{2e-4, 0.0});
  EXPECT_NEAR(doubled, 2.0 * base, 1e-9);
  // Background is additive, not scaled.
  const double with_bg =
      expected_cpm({0, 0}, sources, env, SensorResponse{1e-4, 7.0});
  EXPECT_NEAR(with_bg, base + 7.0, 1e-9);
}

TEST(ObstacleType, MaterialConstructorUsesTable) {
  const Obstacle o(make_rect(0, 0, 1, 1), Material::kLead);
  EXPECT_DOUBLE_EQ(o.mu(), attenuation_coefficient(Material::kLead));
}

}  // namespace
}  // namespace radloc
