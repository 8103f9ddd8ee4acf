// `oodb explain --history` on a container history: a run over a hash
// index and a directory is dumped with HistoryIo, and the oodb binary —
// a fresh process, so nothing but the tool itself registers the types
// the dump names — must load and explain it.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "containers/directory.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "schedule/history_io.h"

namespace oodb {
namespace {

/// Runs `command` through the shell; returns its exit status and
/// captures stdout and stderr into `output`.
int RunCommand(const std::string& command, std::string* output) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) output->append(buf, n);
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(OodbExplainHistoryTest, ExplainsHashIndexAndDirectoryHistory) {
  Database db;
  RegisterPageMethods(&db);
  HashIndex::RegisterMethods(&db);
  RegisterDirectoryMethods(&db);
  // Capacity 2 makes the inserts split buckets, so the dump carries
  // Bucket freeze/moveTo/stamp actions as well as keyed ones.
  const ObjectId index = HashIndex::Create(&db, "H", /*bucket_capacity=*/2);
  const ObjectId dir = CreateDirectory(&db, "D");
  for (int i = 0; i < 6; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db.RunTransaction("T" + std::to_string(i),
                                  [&](MethodContext& txn) {
                                    OODB_RETURN_IF_ERROR(txn.Call(
                                        index, HashIndex::Insert(key, "v")));
                                    return txn.Call(
                                        dir, Invocation("insert",
                                                        {Value(key),
                                                         Value("v")}));
                                  })
                    .ok());
  }
  Value out;
  ASSERT_TRUE(db.RunTransaction("read", [&](MethodContext& txn) {
                  OODB_RETURN_IF_ERROR(
                      txn.Call(index, HashIndex::Search("k3"), &out));
                  return txn.Call(dir, Invocation("lookup", {Value("k3")}),
                                  &out);
                }).ok());

  Result<std::string> dump = HistoryIo::Dump(db.ts());
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_NE(dump->find("Bucket"), std::string::npos);
  ASSERT_NE(dump->find("Directory"), std::string::npos);
  const std::string path = ::testing::TempDir() + "oodb_explain_history_" +
                           std::to_string(getpid()) + ".hist";
  {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    file << *dump;
  }

  std::string output;
  const int rc = RunCommand(
      std::string(OODB_TOOL) + " explain --history=" + path, &output);
  std::remove(path.c_str());
  EXPECT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("oodb explain: oo-serializable"), std::string::npos)
      << output;
}

}  // namespace
}  // namespace oodb
