// Tests for the search-policy table (search/policy.hpp): its entries, name
// resolution, and the bit-compatibility contract that pins the table
// order (the order the pinned-seed outputs were made in).
#include "search/policy.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using sfs::search::KnowledgeModel;
using sfs::search::resolve_policies;

std::vector<std::string> names_of(KnowledgeModel model) {
  std::vector<std::string> out;
  for (const auto& spec : sfs::search::all_policies()) {
    if (spec.model == model) out.push_back(spec.name);
  }
  return out;
}

TEST(PolicyTable, EntriesAreUniqueFindableAndMatchTheirModel) {
  std::set<std::string> seen;
  for (const auto& spec : sfs::search::all_policies()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    EXPECT_NE(spec.make, nullptr) << spec.name;
    EXPECT_EQ(sfs::search::find_policy(spec.name), &spec) << spec.name;
  }
  EXPECT_EQ(sfs::search::find_policy("zzz"), nullptr);
  EXPECT_EQ(sfs::search::find_policy(""), nullptr);
}

TEST(PolicyTable, HoldsTheBuiltInPortfolios) {
  EXPECT_EQ(sfs::search::all_policies().size(), 15u);
  EXPECT_EQ(names_of(KnowledgeModel::kWeak).size(), 10u);
  EXPECT_EQ(names_of(KnowledgeModel::kStrong).size(), 5u);
  for (const auto& spec : sfs::search::all_policies()) {
    EXPECT_FALSE(spec.description.empty()) << spec.name;
  }
}

TEST(PolicyTable, WeakOrderMatchesLegacyPortfolio) {
  // Bit-compatibility contract: the table order is the portfolio order
  // the pinned-seed outputs were produced with (the sweep engine tags
  // per-policy RNG streams by portfolio index, so this order is pinned).
  const std::vector<std::string> legacy{
      "bfs",           "dfs",           "degree-greedy",
      "min-id-greedy", "max-id-greedy", "random-frontier",
      "frontier-walk", "no-backtrack-walk", "random-walk",
      "weak-sim(degree-greedy-strong)"};
  EXPECT_EQ(names_of(KnowledgeModel::kWeak), legacy);
  // And the full-portfolio factory path agrees.
  const auto portfolio = sfs::search::make_searchers(
      resolve_policies(KnowledgeModel::kWeak, {}));
  ASSERT_EQ(portfolio.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(portfolio[i]->name(), legacy[i]) << "index " << i;
  }
}

TEST(PolicyTable, StrongOrderMatchesLegacyPortfolio) {
  const std::vector<std::string> legacy{
      "degree-greedy-strong", "bfs-strong", "random-strong",
      "min-id-strong", "max-id-strong"};
  EXPECT_EQ(names_of(KnowledgeModel::kStrong), legacy);
  const auto portfolio = sfs::search::make_searchers(
      resolve_policies(KnowledgeModel::kStrong, {}));
  ASSERT_EQ(portfolio.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(portfolio[i]->name(), legacy[i]) << "index " << i;
  }
}

// The one factory's contract. The portfolio engine names its PolicyCost
// rows from the specs, and run_search builds the view in the model the
// searcher declares, so every entry's searcher must carry the spec's name
// and model.
TEST(PolicyTable, FactoriesProducePoliciesNamedLikeTheirSpec) {
  for (const auto& spec : sfs::search::all_policies()) {
    const auto searcher = spec.make();
    EXPECT_EQ(searcher->name(), spec.name);
    EXPECT_EQ(searcher->model(), spec.model) << spec.name;
  }
}

// make_searchers keeps the given order, across models.
TEST(PolicyTable, MakeSearchersKeepsOrderAndModels) {
  const std::vector<std::string> mixed{"bfs", "degree-greedy-strong",
                                       "random-walk"};
  std::vector<const sfs::search::PolicySpec*> specs;
  for (const auto& name : mixed) {
    specs.push_back(sfs::search::find_policy(name));
  }
  const auto searchers = sfs::search::make_searchers(specs);
  ASSERT_EQ(searchers.size(), mixed.size());
  const KnowledgeModel models[] = {KnowledgeModel::kWeak,
                                   KnowledgeModel::kStrong,
                                   KnowledgeModel::kWeak};
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(searchers[i]->name(), mixed[i]) << "index " << i;
    EXPECT_EQ(searchers[i]->model(), models[i]) << "index " << i;
  }
}

// ------------------------------------------------------- resolution

TEST(ResolvePolicies, EmptyFilterIsFullModelPortfolio) {
  const auto weak = resolve_policies(KnowledgeModel::kWeak, {});
  EXPECT_EQ(weak.size(), 10u);
  const auto strong = resolve_policies(KnowledgeModel::kStrong, {});
  EXPECT_EQ(strong.size(), 5u);
}

TEST(ResolvePolicies, NamedSubsetKeepsGivenOrder) {
  const std::vector<std::string> names{"random-walk", "bfs"};
  const auto specs = resolve_policies(KnowledgeModel::kWeak, names);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0]->name, "random-walk");
  EXPECT_EQ(specs[1]->name, "bfs");
}

TEST(ResolvePolicies, CheckedErrors) {
  const std::vector<std::string> unknown{"not-a-policy"};
  EXPECT_THROW((void)resolve_policies(KnowledgeModel::kWeak, unknown),
               std::invalid_argument);
  const std::vector<std::string> wrong_model{"bfs-strong"};
  EXPECT_THROW((void)resolve_policies(KnowledgeModel::kWeak, wrong_model),
               std::invalid_argument);
  const std::vector<std::string> duplicate{"bfs", "bfs"};
  EXPECT_THROW((void)resolve_policies(KnowledgeModel::kWeak, duplicate),
               std::invalid_argument);
}

}  // namespace
