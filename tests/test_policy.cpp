// Tests for the search-policy registry (search/policy.hpp): registration
// rules, name resolution, and the bit-compatibility contract that pins
// the registry order (the order the pinned-seed outputs were made in).
#include "search/policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "search/strong_algorithms.hpp"
#include "search/weak_algorithms.hpp"

namespace {

using sfs::search::KnowledgeModel;
using sfs::search::PolicyRegistry;
using sfs::search::PolicySpec;
using sfs::search::resolve_policies;

PolicySpec minimal_weak(std::string name) {
  PolicySpec spec;
  spec.name = std::move(name);
  spec.description = "test policy";
  spec.model = KnowledgeModel::kWeak;
  spec.make_weak = [] {
    return std::unique_ptr<sfs::search::WeakSearcher>(
        new sfs::search::BfsWeak);
  };
  return spec;
}

// ------------------------------------------------ registration rules

TEST(PolicyRegistry, RejectsEmptyName) {
  PolicyRegistry reg;
  EXPECT_THROW(reg.add(minimal_weak("")), std::invalid_argument);
}

TEST(PolicyRegistry, RejectsDuplicateName) {
  PolicyRegistry reg;
  reg.add(minimal_weak("p"));
  EXPECT_THROW(reg.add(minimal_weak("p")), std::invalid_argument);
}

TEST(PolicyRegistry, RejectsModelFactoryMismatch) {
  PolicyRegistry reg;
  // Weak model without a weak factory.
  PolicySpec no_factory;
  no_factory.name = "broken";
  no_factory.model = KnowledgeModel::kWeak;
  EXPECT_THROW(reg.add(no_factory), std::invalid_argument);
  // Weak model with BOTH factories set.
  PolicySpec both = minimal_weak("both");
  both.make_strong = [] {
    return std::unique_ptr<sfs::search::StrongSearcher>(
        new sfs::search::BfsStrong);
  };
  EXPECT_THROW(reg.add(both), std::invalid_argument);
  // Strong model without a strong factory.
  PolicySpec strong_no_factory;
  strong_no_factory.name = "broken-strong";
  strong_no_factory.model = KnowledgeModel::kStrong;
  EXPECT_THROW(reg.add(strong_no_factory), std::invalid_argument);
}

TEST(PolicyRegistry, FindAndOrder) {
  PolicyRegistry reg;
  reg.add(minimal_weak("a"));
  reg.add(minimal_weak("b"));
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("a"), nullptr);
  EXPECT_EQ(reg.find("a")->name, "a");
  EXPECT_EQ(reg.find("zzz"), nullptr);
  const auto all = reg.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "a");  // registration order
  EXPECT_EQ(all[1]->name, "b");
}

// --------------------------------------------------- global registry

TEST(GlobalPolicyRegistry, HoldsTheBuiltInPortfolios) {
  const auto& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.size(), 15u);
  EXPECT_EQ(reg.all(KnowledgeModel::kWeak).size(), 10u);
  EXPECT_EQ(reg.all(KnowledgeModel::kStrong).size(), 5u);
  for (const auto* spec : reg.all()) {
    EXPECT_FALSE(spec->description.empty()) << spec->name;
  }
}

TEST(GlobalPolicyRegistry, WeakOrderMatchesLegacyPortfolio) {
  // Bit-compatibility contract: the registry order is the portfolio
  // order the pinned-seed outputs were produced with (the sweep engine
  // tags per-policy RNG streams by portfolio index, so this order is
  // pinned).
  const std::vector<std::string> legacy{
      "bfs",           "dfs",           "degree-greedy",
      "min-id-greedy", "max-id-greedy", "random-frontier",
      "frontier-walk", "no-backtrack-walk", "random-walk",
      "weak-sim(degree-greedy-strong)"};
  const auto specs =
      PolicyRegistry::instance().all(KnowledgeModel::kWeak);
  ASSERT_EQ(specs.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(specs[i]->name, legacy[i]) << "index " << i;
  }
  // And the full-portfolio factory path agrees.
  const auto portfolio = sfs::search::make_weak_searchers(
      resolve_policies(KnowledgeModel::kWeak, {}));
  ASSERT_EQ(portfolio.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(portfolio[i]->name(), legacy[i]) << "index " << i;
  }
}

TEST(GlobalPolicyRegistry, StrongOrderMatchesLegacyPortfolio) {
  const std::vector<std::string> legacy{
      "degree-greedy-strong", "bfs-strong", "random-strong",
      "min-id-strong", "max-id-strong"};
  const auto specs =
      PolicyRegistry::instance().all(KnowledgeModel::kStrong);
  ASSERT_EQ(specs.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(specs[i]->name, legacy[i]) << "index " << i;
  }
  const auto portfolio = sfs::search::make_strong_searchers(
      resolve_policies(KnowledgeModel::kStrong, {}));
  ASSERT_EQ(portfolio.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(portfolio[i]->name(), legacy[i]) << "index " << i;
  }
}

TEST(GlobalPolicyRegistry, FactoriesProducePoliciesNamedLikeTheirSpec) {
  for (const auto* spec : PolicyRegistry::instance().all()) {
    if (spec->model == KnowledgeModel::kWeak) {
      EXPECT_EQ(spec->make_weak()->name(), spec->name);
    } else {
      EXPECT_EQ(spec->make_strong()->name(), spec->name);
    }
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

TEST(ResolvePolicies, MakeSearchersEnforcesModel) {
  const auto strong = resolve_policies(KnowledgeModel::kStrong, {});
  EXPECT_THROW((void)sfs::search::make_weak_searchers(strong),
               std::invalid_argument);
  const auto weak = resolve_policies(KnowledgeModel::kWeak, {});
  EXPECT_THROW((void)sfs::search::make_strong_searchers(weak),
               std::invalid_argument);
  EXPECT_EQ(sfs::search::make_weak_searchers(weak).size(), weak.size());
}

}  // namespace
