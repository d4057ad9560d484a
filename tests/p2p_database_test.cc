#include "db/p2p_database.h"

#include <gtest/gtest.h>

namespace digest {
namespace {

P2PDatabase MakeDb() {
  return P2PDatabase(Schema::Create({"x", "y"}).value());
}

TEST(P2PDatabaseTest, NodeLifecycle) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  EXPECT_TRUE(db.HasNode(0));
  EXPECT_EQ(db.AddNode(0).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.RemoveNode(0).ok());
  EXPECT_FALSE(db.HasNode(0));
  EXPECT_EQ(db.RemoveNode(0).code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, ContentSizeAndTotals) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 2.0});
  db.StoreAt(0).value()->Insert({3.0, 4.0});
  db.StoreAt(1).value()->Insert({5.0, 6.0});
  EXPECT_EQ(db.ContentSize(0), 2u);
  EXPECT_EQ(db.ContentSize(1), 1u);
  EXPECT_EQ(db.ContentSize(99), 0u);
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.Nodes().size(), 2u);
}

TEST(P2PDatabaseTest, EmptyTracksTuplesAcrossStores) {
  P2PDatabase db = MakeDb();
  EXPECT_TRUE(db.Empty());
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(5).ok());
  EXPECT_TRUE(db.Empty());  // Stores, but no tuples.
  const LocalTupleId id = db.StoreAt(5).value()->Insert({1.0, 2.0});
  EXPECT_FALSE(db.Empty());
  ASSERT_TRUE(db.StoreAt(5).value()->Erase(id).ok());
  EXPECT_TRUE(db.Empty());
  db.StoreAt(0).value()->Insert({3.0, 4.0});
  EXPECT_FALSE(db.Empty());
  ASSERT_TRUE(db.RemoveNode(0).ok());
  EXPECT_TRUE(db.Empty());
}

TEST(P2PDatabaseTest, StoreAtMissingNodeFails) {
  P2PDatabase db = MakeDb();
  EXPECT_EQ(db.StoreAt(3).status().code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, GetTupleDistinguishesFailureModes) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  const LocalTupleId id = db.StoreAt(0).value()->Insert({1.0, 2.0});
  Result<Tuple> ok = db.GetTuple(TupleRef{0, id});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (Tuple{1.0, 2.0}));
  // Deleted tuple -> NotFound.
  ASSERT_TRUE(db.StoreAt(0).value()->Erase(id).ok());
  EXPECT_EQ(db.GetTuple(TupleRef{0, id}).status().code(),
            StatusCode::kNotFound);
  // Departed node -> Unavailable.
  EXPECT_EQ(db.GetTuple(TupleRef{9, 0}).status().code(),
            StatusCode::kUnavailable);
}

TEST(P2PDatabaseTest, ExactAvg) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 10.0});
  db.StoreAt(0).value()->Insert({2.0, 20.0});
  db.StoreAt(1).value()->Insert({3.0, 30.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  Result<double> avg = db.ExactAggregate(q);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(*avg, 2.0);
}

TEST(P2PDatabaseTest, ExactSumOverExpression) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 10.0});
  db.StoreAt(0).value()->Insert({2.0, 20.0});
  AggregateQuery q =
      AggregateQuery::Parse("SELECT SUM(x + y) FROM R").value();
  Result<double> sum = db.ExactAggregate(q);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 33.0);
}

TEST(P2PDatabaseTest, ExactCount) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 1.0});
  db.StoreAt(0).value()->Insert({2.0, 2.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT COUNT(*) FROM R").value();
  Result<double> count = db.ExactAggregate(q);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 2.0);
}

TEST(P2PDatabaseTest, AvgOverEmptyRelationFails) {
  P2PDatabase db = MakeDb();
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  EXPECT_EQ(db.ExactAggregate(q).status().code(),
            StatusCode::kFailedPrecondition);
  // SUM and COUNT of the empty relation are 0.
  AggregateQuery sum = AggregateQuery::Parse("SELECT SUM(x) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(sum).value(), 0.0);
  AggregateQuery cnt =
      AggregateQuery::Parse("SELECT COUNT(*) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(cnt).value(), 0.0);
}

TEST(P2PDatabaseTest, AggregateWithUnknownAttributeFails) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  db.StoreAt(0).value()->Insert({1.0, 1.0});
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(zzz) FROM R").value();
  EXPECT_EQ(db.ExactAggregate(q).status().code(), StatusCode::kNotFound);
}

TEST(P2PDatabaseTest, RemoveNodeDropsItsTuples) {
  P2PDatabase db = MakeDb();
  ASSERT_TRUE(db.AddNode(0).ok());
  ASSERT_TRUE(db.AddNode(1).ok());
  db.StoreAt(0).value()->Insert({1.0, 0.0});
  db.StoreAt(1).value()->Insert({100.0, 0.0});
  ASSERT_TRUE(db.RemoveNode(1).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
  AggregateQuery q = AggregateQuery::Parse("SELECT AVG(x) FROM R").value();
  EXPECT_DOUBLE_EQ(db.ExactAggregate(q).value(), 1.0);
}

TEST(SchemaTest, CreateValidation) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({""}).ok());
  EXPECT_FALSE(Schema::Create({"a", "a"}).ok());
  Result<Schema> s = Schema::Create({"a", "b"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->NumAttributes(), 2u);
  EXPECT_EQ(s->AttributeName(1), "b");
  EXPECT_EQ(s->AttributeIndex("b").value(), 1u);
  EXPECT_EQ(s->AttributeIndex("c").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace digest
