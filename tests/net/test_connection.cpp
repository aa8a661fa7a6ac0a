#include "net/connection.hpp"

#include <gtest/gtest.h>

namespace rattrap::net {
namespace {

TEST(Connection, EstablishBeforeTransfer) {
  Link link(lan_wifi());
  Connection conn(link, sim::Rng(1));
  EXPECT_FALSE(conn.established());
  EXPECT_GT(conn.establish(), 0);
  EXPECT_TRUE(conn.established());
}

TEST(Connection, UploadRecordsTraffic) {
  Link link(lan_wifi());
  Connection conn(link, sim::Rng(2));
  conn.establish();
  const auto t =
      conn.upload(Message{MessageType::kMobileCode, 1 << 20});
  EXPECT_GT(t, 0);
  EXPECT_EQ(conn.traffic().up_bytes(MessageType::kMobileCode), 1u << 20);
  EXPECT_EQ(conn.traffic().total_down(), 0u);
}

TEST(Connection, DownloadRecordsTraffic) {
  Link link(lan_wifi());
  Connection conn(link, sim::Rng(3));
  conn.establish();
  conn.download(Message{MessageType::kResult, 4096});
  EXPECT_EQ(conn.traffic().down_bytes(MessageType::kResult), 4096u);
}

TEST(Connection, CloseRequiresReestablish) {
  Link link(lan_wifi());
  Connection conn(link, sim::Rng(4));
  conn.establish();
  conn.close();
  EXPECT_FALSE(conn.established());
  conn.establish();
  EXPECT_TRUE(conn.established());
}

TEST(Connection, BiggerPayloadsTakeLonger) {
  Link link(cellular_3g());
  Connection conn(link, sim::Rng(5));
  conn.establish();
  double small = 0, large = 0;
  for (int i = 0; i < 20; ++i) {
    small += static_cast<double>(
        conn.upload(Message{MessageType::kFileParams, 10 * 1024}));
    large += static_cast<double>(
        conn.upload(Message{MessageType::kFileParams, 1000 * 1024}));
  }
  EXPECT_GT(large, small);
}

}  // namespace
}  // namespace rattrap::net
