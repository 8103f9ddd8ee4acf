// Byte-stable inferred matrices, pinned against checked-in goldens.
//
// The goldens live in tests/golden/infer_<schema>.txt and double as the
// reference for the inference drift gates (ctest and CI), which diff
// `oodb infer <schema>` output against the same files — so this test
// reproduces the tool's text output exactly (schema header line + one
// RenderInferredText block per registered type, registry order).
// Regenerate after an intentional change with:
//   OODB_REGEN_GOLDENS=1 ./build/tests/analysis_infer_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/commutativity_inference.h"
#include "analysis/spec_synthesis.h"
#include "cc/database.h"
#include "tools/tools.h"

namespace oodb {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(OODB_GOLDEN_DIR) + "/" + name;
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("OODB_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with OODB_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual) << name;
}

/// Mirrors `oodb infer <schema>`: the same registrations, the same
/// header, the same per-type rendering, in registry order.
std::string RenderSchema(const std::string& name) {
  Database db;
  EXPECT_TRUE(tools::RegisterSchema(name, &db)) << name;
  std::string out = "== oodb_infer: schema '" + name + "' ==\n";
  for (const ObjectType* type : db.registry().Types()) {
    out += analysis::RenderInferredText(
        analysis::InferType(type, db.registry()));
  }
  return out;
}

TEST(InferGolden, Bank) {
  ExpectMatchesGolden(RenderSchema("bank"), "infer_bank.txt");
}

TEST(InferGolden, Containers) {
  ExpectMatchesGolden(RenderSchema("containers"), "infer_containers.txt");
}

TEST(InferGolden, Document) {
  ExpectMatchesGolden(RenderSchema("document"), "infer_document.txt");
}

TEST(InferGolden, Encyclopedia) {
  ExpectMatchesGolden(RenderSchema("encyclopedia"), "infer_encyclopedia.txt");
}

}  // namespace
}  // namespace oodb
